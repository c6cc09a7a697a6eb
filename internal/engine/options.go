package engine

import (
	"fmt"
	"time"
)

// OptionError is the typed validation error for user-facing options across
// the front ends: engine.Options, cmpsim.Options, fullsim.Options. It names
// the component, the offending field and value, and why it was rejected, so
// misconfiguration fails loudly at Run time instead of silently misbehaving
// (a NaN budget poisoning every metric, a negative worker count quietly
// serializing a sweep).
type OptionError struct {
	// Component is the front end that rejected the option ("engine",
	// "cmpsim", "fullsim", ...).
	Component string
	// Field is the option field, dotted for nested options.
	Field string
	// Value is the rejected value.
	Value any
	// Reason says what a valid value looks like.
	Reason string
}

// Error implements error.
func (e *OptionError) Error() string {
	return fmt.Sprintf("%s: option %s = %v: %s", e.Component, e.Field, e.Value, e.Reason)
}

// component names the front end in errors: ErrPrefix, or "engine".
func (opt *Options) component() string {
	if opt.ErrPrefix == "" {
		return "engine"
	}
	return opt.ErrPrefix
}

// explore is the explore interval: Explore, or DeltaSim × DeltasPerExplore.
func (opt *Options) explore() time.Duration {
	if opt.Explore == 0 {
		return opt.DeltaSim * time.Duration(opt.DeltasPerExplore)
	}
	return opt.Explore
}

// validate checks Options before Run touches the substrate. All failures
// are *OptionError with Component set to ErrPrefix (or "engine").
func (opt *Options) validate() error {
	comp := opt.component()
	fail := func(field string, value any, reason string) error {
		return &OptionError{Component: comp, Field: field, Value: value, Reason: reason}
	}
	if opt.Decider == nil {
		return fail("Decider", nil, "required")
	}
	if opt.Budget == nil && opt.Stages == nil {
		return fail("Budget", nil, "required")
	}
	if opt.DeltaSim <= 0 {
		return fail("DeltaSim", opt.DeltaSim, "must be positive")
	}
	if opt.DeltasPerExplore <= 0 {
		return fail("DeltasPerExplore", opt.DeltasPerExplore, "must be positive")
	}
	if opt.Horizon < 0 {
		return fail("Horizon", opt.Horizon, "must be non-negative")
	}
	if opt.Explore < 0 {
		return fail("Explore", opt.Explore, "must be non-negative")
	}
	if opt.Supervisor != nil {
		if err := opt.Supervisor.Validate(); err != nil {
			if oe, ok := err.(*OptionError); ok {
				oe.Component = comp
			}
			return err
		}
	}
	return nil
}
