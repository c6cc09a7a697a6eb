package engine

import (
	"fmt"
	"time"

	"gpm/internal/core"
	"gpm/internal/fault"
	"gpm/internal/modes"
)

// NewDecider builds the manager for n cores: guarded when guard is non-nil,
// plain otherwise, and predicting through a fresh history table wrapped
// around pred when history is non-nil (pred must then be the analytic
// core.Predictor). Invalid settings are an *OptionError on "Guard" or
// "History".
func NewDecider(plan modes.Plan, policy core.Policy, pred core.MatrixPredictor, n int, guard *core.GuardConfig, history *core.HistoryConfig) (Decider, error) {
	if err := validateManager("engine", guard, history); err != nil {
		return nil, err
	}
	if history != nil {
		base, ok := pred.(core.Predictor)
		if !ok {
			return nil, &OptionError{Component: "engine", Field: "History", Value: "non-nil", Reason: fmt.Sprintf("needs a core.Predictor to wrap, got %T", pred)}
		}
		pred = core.NewHistoryPredictor(base, *history)
	}
	if guard != nil {
		return core.NewResilientManager(plan, policy, pred, n, *guard), nil
	}
	return core.NewManager(plan, policy, pred, n), nil
}

func validateManager(comp string, guard *core.GuardConfig, history *core.HistoryConfig) error {
	if guard != nil {
		if err := guard.Validate(); err != nil {
			return &OptionError{Component: comp, Field: "Guard", Value: "", Reason: err.Error()}
		}
	}
	if history != nil {
		if err := history.Validate(); err != nil {
			return &OptionError{Component: comp, Field: "History", Value: "", Reason: err.Error()}
		}
	}
	return nil
}

// Recording is a recorded decision trace that a run re-drives in place of a
// policy; *obs.Trace implements it. Never store a nil pointer in one: the
// interface would compare non-nil.
type Recording interface {
	// Decider actuates the recorded vectors; explore is the run's.
	Decider(explore time.Duration) (Decider, error)
	// BudgetStage replaces the whole budget chain with the recorded budgets.
	BudgetStage() Stage
	PolicyName() string
	// FaultSpec is the recording run's fault scenario spec, or "".
	FaultSpec() string
}

// Management is how a run is managed. The fields mean what the front ends'
// fields of the same names (cmpsim.Options, fullsim.ManagedOptions) mean.
type Management struct {
	// Cores is the chip width.
	Cores  int
	Policy core.Policy
	// Predictor is the run's analytic predictor; it also fills an unset
	// Supervisor.Predictor.
	Predictor  core.Predictor
	Guard      *core.GuardConfig
	History    *core.HistoryConfig
	Supervisor *SupervisorConfig
	Fault      *fault.Scenario
	Replay     Recording
}

// Wire fills opt's Decider, Injector, Supervisor, Stages and PolicyName from
// m — the one place a front end's options become an engine run — and
// validates the result. It never touches a substrate, so front ends call it
// first and every option error returns before any simulation work. Option
// errors are *OptionError with Component set to opt.ErrPrefix (or "engine").
func Wire(opt *Options, m Management) error {
	comp := opt.component()
	if err := validateManager(comp, m.Guard, m.History); err != nil {
		return err
	}
	sc := m.Fault
	var err error
	if m.Replay != nil {
		if m.Supervisor != nil || m.History != nil {
			field := "Supervisor"
			if m.Supervisor == nil {
				field = "History"
			}
			return &OptionError{Component: comp, Field: field, Value: "non-nil",
				Reason: "incompatible with Replay: recorded vectors must actuate verbatim"}
		}
		// A manifest makes the trace self-contained: the recording run's
		// fault scenario applies unless the caller overrides it.
		if spec := m.Replay.FaultSpec(); sc == nil && spec != "" {
			parsed, perr := fault.ParseScenario(spec)
			if perr != nil {
				return fmt.Errorf("%s: replay: manifest fault spec: %w", comp, perr)
			}
			sc = &parsed
		}
		opt.Decider, err = m.Replay.Decider(opt.explore())
		// The recorded budgets already fold the whole budget middleware
		// (source, fault spikes, thermal clamp); replay them verbatim. The
		// thermal governor still integrates for the MaxTempC series, and the
		// injector still kills cores — those are physics, not decisions.
		opt.Stages = []Stage{m.Replay.BudgetStage()}
		opt.PolicyName = m.Replay.PolicyName()
	} else {
		if m.Policy == nil {
			return &OptionError{Component: comp, Field: "Policy", Value: nil, Reason: "required"}
		}
		opt.Decider, err = NewDecider(opt.Plan, m.Policy, m.Predictor, m.Cores, m.Guard, m.History)
		opt.PolicyName = m.Policy.Name()
	}
	if err != nil {
		return err
	}
	if sc != nil && sc.Enabled() {
		if opt.Injector, err = fault.NewInjector(*sc, m.Cores); err != nil {
			return err
		}
	}
	if m.Supervisor != nil {
		sup := *m.Supervisor
		if sup.Predictor.Plan.NumModes() == 0 {
			sup.Predictor = m.Predictor
		}
		opt.Supervisor = &sup
	}
	return opt.validate()
}
