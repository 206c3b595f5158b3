package stats

import "testing"

func TestForEachIndexedOrderAndCoverage(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		got := ForEachIndexed(workers, 40, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, v, i*i)
			}
		}
	}
	if got := ForEachIndexed(4, 0, func(i int) int { return i }); len(got) != 0 {
		t.Fatalf("n=0 returned %d results", len(got))
	}
}

func TestForEachIndexedPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want the worker's panic value", r)
		}
	}()
	ForEachIndexed(4, 16, func(i int) int {
		if i == 7 {
			panic("boom")
		}
		return i
	})
	t.Fatal("panic did not propagate")
}
