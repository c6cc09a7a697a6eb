package pool

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestForEachRunsEveryJobOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		n := 37
		counts := make([]atomic.Int32, n)
		if err := ForEach(workers, n, func(i int) error {
			counts[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Errorf("workers=%d job %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachJoinsErrorsInIndexOrder(t *testing.T) {
	err := ForEach(4, 6, func(i int) error {
		if i%2 == 1 {
			return fmt.Errorf("job %d failed", i)
		}
		return nil
	})
	if err == nil {
		t.Fatal("no error returned")
	}
	want := errors.Join(
		fmt.Errorf("job 1 failed"), fmt.Errorf("job 3 failed"), fmt.Errorf("job 5 failed"))
	if err.Error() != want.Error() {
		t.Errorf("error = %q, want %q", err, want)
	}
}
