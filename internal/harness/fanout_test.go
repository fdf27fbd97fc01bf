package harness

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// widthPrefetcher serves cells from the shared suite's memoized runs
// (ExecuteCell semantics) and reports its value as the worker count, so a
// suite using it runs its generators' own per-app executions that many at
// a time.
type widthPrefetcher int

func (widthPrefetcher) Prefetch(cells []Cell) (map[Cell]*Run, error) {
	out := make(map[Cell]*Run, len(cells))
	for _, c := range cells {
		get := shared.Micro
		if c.Full {
			get = shared.Full
		}
		r, err := get(c.App, c.Kind)
		if err != nil {
			return nil, err
		}
		out[c] = r
	}
	return out, nil
}

func (w widthPrefetcher) Workers() int { return int(w) }

// TestFanOutMatchesWidthOne pins the fanned-out generators to the
// sequential ones: at width 4 every row must equal the width-1 row.
func TestFanOutMatchesWidthOne(t *testing.T) {
	wide := NewSuite()
	wide.SetPrefetcher(widthPrefetcher(4))
	if w := wide.width(); w != 4 {
		t.Fatalf("width = %d, want the prefetcher's 4", w)
	}
	if w := shared.width(); w != 1 {
		t.Fatalf("width without a prefetcher = %d, want 1", w)
	}
	for _, gen := range []struct {
		name string
		rows func(*Suite) (any, error)
	}{
		{"AblationPredictor", func(s *Suite) (any, error) { return s.AblationPredictor() }},
		{"ComparisonAutoGreen", func(s *Suite) (any, error) { return s.ComparisonAutoGreen() }},
		{"ExperimentBackground", func(s *Suite) (any, error) {
			return s.ExperimentBackground("MSN", "Amazon", "W3Schools")
		}},
	} {
		got, err := gen.rows(wide)
		if err != nil {
			t.Fatalf("%s at width 4: %v", gen.name, err)
		}
		want, err := gen.rows(shared)
		if err != nil {
			t.Fatalf("%s at width 1: %v", gen.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s rows differ:\nwidth 4: %+v\nwidth 1: %+v", gen.name, got, want)
		}
	}
	if _, err := wide.ExperimentBackground("nope"); err == nil {
		t.Error("unknown app accepted at width 4")
	}
}

// TestFanOutReturnsLowestIndexError checks that a failing body yields the
// same error at every width: the one with the lowest index.
func TestFanOutReturnsLowestIndexError(t *testing.T) {
	for _, width := range []int{1, 2, 4, 16} {
		s := NewSuite()
		s.SetPrefetcher(widthPrefetcher(width))
		err := s.fanOut(40, func(i int) error {
			if i%7 == 5 {
				return fmt.Errorf("body %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "body 5" {
			t.Errorf("width %d: err = %v, want body 5", width, err)
		}
		if err := s.fanOut(0, func(int) error { return errors.New("ran") }); err != nil {
			t.Errorf("width %d: empty fan-out ran a body: %v", width, err)
		}
	}
}
