package main

import "testing"

func TestInterquartileMean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{5}, 5},
		{[]float64{1, 3}, 2},
		{[]float64{100, 1, 2, 3}, 2.5},
		{[]float64{9, 1, 2, 3, 4, 5, 6, 7, 8}, 5},
	}
	for _, c := range cases {
		if got := interquartileMean(c.in); got != c.want {
			t.Errorf("interquartileMean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestHostScaleIsPositive(t *testing.T) {
	if s := hostScale(); !(s > 0) || !finite(s) {
		t.Fatalf("hostScale() = %v", s)
	}
}
