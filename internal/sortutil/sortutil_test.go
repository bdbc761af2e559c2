package sortutil

import "testing"

func TestLowerUpperBound(t *testing.T) {
	a := []int64{1, 3, 3, 3, 7, 9}
	cases := []struct {
		x      int64
		lb, ub int
	}{
		{0, 0, 0}, {1, 0, 1}, {2, 1, 1}, {3, 1, 4}, {4, 4, 4},
		{7, 4, 5}, {8, 5, 5}, {9, 5, 6}, {10, 6, 6},
	}
	for _, c := range cases {
		if got := LowerBound(a, c.x); got != c.lb {
			t.Errorf("LowerBound(%d) = %d, want %d", c.x, got, c.lb)
		}
		if got := UpperBound(a, c.x); got != c.ub {
			t.Errorf("UpperBound(%d) = %d, want %d", c.x, got, c.ub)
		}
	}
	if LowerBound(nil, 5) != 0 || UpperBound(nil, 5) != 0 {
		t.Error("bounds on empty slice must be 0")
	}
}
