package vclock

import (
	"testing"
	"testing/quick"
)

func TestLayoutValidate(t *testing.T) {
	tests := []struct {
		name    string
		layout  Layout
		wantErr bool
	}{
		{"default", DefaultLayout, false},
		{"wide clock", WideClockLayout, false},
		{"exactly 32", Layout{TIDBits: 4, ClockBits: 28}, false},
		{"over 32", Layout{TIDBits: 8, ClockBits: 28}, true},
		{"zero tid", Layout{TIDBits: 0, ClockBits: 23}, true},
		{"zero clock", Layout{TIDBits: 8, ClockBits: 0}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.layout.Validate()
			if (err != nil) != tt.wantErr {
				t.Fatalf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestLayoutLimits(t *testing.T) {
	if got := DefaultLayout.MaxTID(); got != 255 {
		t.Errorf("MaxTID = %d, want 255", got)
	}
	if got := DefaultLayout.MaxClock(); got != 1<<23-1 {
		t.Errorf("MaxClock = %d, want %d", got, 1<<23-1)
	}
	if !DefaultLayout.HasExpandBit() {
		t.Error("default layout must leave room for the expand bit")
	}
	if WideClockLayout.HasExpandBit() {
		t.Error("wide-clock layout uses all 32 bits, no expand bit")
	}
}

// TestEpochPackUnpackRoundTrip covers layouts with and without the expand
// bit: in the 32-bit ones the top thread-id bit is bit 31.
func TestEpochPackUnpackRoundTrip(t *testing.T) {
	for _, l := range []Layout{DefaultLayout, WideClockLayout, {TIDBits: 8, ClockBits: 10}, {TIDBits: 1, ClockBits: 31}} {
		f := func(tid uint8, clock uint32) bool {
			id := int(tid) & l.MaxTID()
			clock &= l.MaxClock()
			e := l.Pack(id, clock)
			return l.TID(e) == id && l.Clock(e) == clock && !l.Expanded(e)
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("layout %+v: %v", l, err)
		}
	}
}

func TestEpochExpandFlag(t *testing.T) {
	l := DefaultLayout
	e := l.Pack(200, 12345)
	x := l.WithExpanded(e, true)
	if !l.Expanded(x) {
		t.Fatal("expand flag not set")
	}
	if l.TID(x) != 200 || l.Clock(x) != 12345 {
		t.Fatalf("expand flag corrupted payload: tid=%d clock=%d", l.TID(x), l.Clock(x))
	}
	if got := l.WithExpanded(x, false); got != e {
		t.Fatalf("clearing expand flag: got %v, want %v", got, e)
	}
}

func TestZeroEpochHappensBeforeEverything(t *testing.T) {
	l := DefaultLayout
	var e Epoch
	// The race test of Fig. 2 is CLOCK(e) > vc[TID(e)]; a zero epoch has
	// clock 0 which can never exceed any vector clock element.
	if l.Clock(e) != 0 || l.TID(e) != 0 {
		t.Fatalf("zero epoch should decode to 0@0, got %d@%d", l.TID(e), l.Clock(e))
	}
}

func TestVCTickAndClock(t *testing.T) {
	v := New(4)
	if got := v.Tick(2); got != 1 {
		t.Fatalf("first Tick = %d, want 1", got)
	}
	v.Tick(2)
	if got := v.Clock(2); got != 2 {
		t.Fatalf("Clock(2) = %d, want 2", got)
	}
	if got := v.Clock(99); got != 0 {
		t.Fatalf("Clock beyond length = %d, want 0", got)
	}
}

func TestVCGrowOnSet(t *testing.T) {
	var v VC
	v.SetClock(5, 7)
	if v.Len() != 6 {
		t.Fatalf("Len = %d, want 6", v.Len())
	}
	if v.Clock(5) != 7 {
		t.Fatalf("Clock(5) = %d, want 7", v.Clock(5))
	}
}

func TestVCJoin(t *testing.T) {
	a := New(3)
	a.SetClock(0, 5)
	a.SetClock(1, 1)
	b := New(3)
	b.SetClock(1, 9)
	b.SetClock(2, 2)
	a.Join(b)
	want := []uint32{5, 9, 2}
	for i, w := range want {
		if a.Clock(i) != w {
			t.Errorf("after join, Clock(%d) = %d, want %d", i, a.Clock(i), w)
		}
	}
}

func TestVCJoinGrows(t *testing.T) {
	a := New(1)
	b := New(4)
	b.SetClock(3, 3)
	a.Join(b)
	if a.Clock(3) != 3 {
		t.Fatalf("join did not grow: Clock(3) = %d", a.Clock(3))
	}
}

func TestHappensBefore(t *testing.T) {
	a := New(2)
	a.SetClock(0, 1)
	b := New(2)
	b.SetClock(0, 2)
	b.SetClock(1, 1)
	if !a.HappensBefore(b) {
		t.Error("a should happen-before b")
	}
	if b.HappensBefore(a) {
		t.Error("b should not happen-before a")
	}
	if !a.HappensBefore(a) {
		t.Error("happens-before must be reflexive on equal clocks")
	}
}

func TestCopyIsIndependent(t *testing.T) {
	a := New(2)
	a.SetClock(0, 1)
	b := a.Copy()
	b.Tick(0)
	if a.Clock(0) != 1 {
		t.Fatalf("Copy shares storage: a.Clock(0) = %d", a.Clock(0))
	}
}

func TestCopyIntoReusesStorage(t *testing.T) {
	a := New(3)
	a.SetClock(0, 1)
	a.SetClock(2, 5)
	var dst VC
	a.CopyInto(&dst)
	if dst.String() != a.String() {
		t.Fatalf("CopyInto = %v, want %v", dst, a)
	}
	dst.Tick(0)
	if a.Clock(0) != 1 {
		t.Fatalf("CopyInto shares storage: a.Clock(0) = %d", a.Clock(0))
	}
	// A shorter source shrinks the copy: elements past its length read 0.
	short := New(1)
	short.SetClock(0, 7)
	short.CopyInto(&dst)
	if dst.Len() != 1 || dst.Clock(0) != 7 || dst.Clock(2) != 0 {
		t.Fatalf("CopyInto from shorter clock = %v", dst)
	}
	if allocs := testing.AllocsPerRun(100, func() { a.CopyInto(&dst) }); allocs != 0 {
		t.Fatalf("CopyInto into a large-enough buffer allocates %.1f times", allocs)
	}
}

func TestReset(t *testing.T) {
	v := New(3)
	v.SetClock(0, 4)
	v.SetClock(2, 9)
	v.Reset()
	for i := 0; i < 3; i++ {
		if v.Clock(i) != 0 {
			t.Fatalf("Clock(%d) = %d after Reset", i, v.Clock(i))
		}
	}
}

// Property: Join is the least upper bound — both operands happen-before the
// join, and the join is pointwise max.
func TestJoinIsLUBProperty(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		a, b := New(len(xs)), New(len(ys))
		for i, x := range xs {
			a.SetClock(i, uint32(x))
		}
		for i, y := range ys {
			b.SetClock(i, uint32(y))
		}
		j := a.Copy()
		j.Join(b)
		return a.HappensBefore(j) && b.HappensBefore(j)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: HappensBefore is transitive.
func TestHappensBeforeTransitiveProperty(t *testing.T) {
	f := func(xs []uint8, inc1, inc2 []uint8) bool {
		n := len(xs)
		a := New(n)
		for i, x := range xs {
			a.SetClock(i, uint32(x))
		}
		b := a.Copy()
		for i := range inc1 {
			if n > 0 {
				b.Tick(int(inc1[i]) % n)
			}
		}
		c := b.Copy()
		for i := range inc2 {
			if n > 0 {
				c.Tick(int(inc2[i]) % n)
			}
		}
		// a ≤ b and b ≤ c by construction, so a ≤ c must hold.
		return a.HappensBefore(b) && b.HappensBefore(c) && a.HappensBefore(c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVCEpoch(t *testing.T) {
	l := DefaultLayout
	v := New(3)
	v.SetClock(1, 42)
	e := v.Epoch(l, 1)
	if l.TID(e) != 1 || l.Clock(e) != 42 {
		t.Fatalf("Epoch = %d@%d, want 1@42", l.TID(e), l.Clock(e))
	}
}

func TestEpochString(t *testing.T) {
	e := DefaultLayout.Pack(3, 42)
	if got := e.String(); got != "3@42" {
		t.Errorf("String = %q, want 3@42", got)
	}
	x := DefaultLayout.WithExpanded(e, true)
	if got := x.String(); got != "3@42+x" {
		t.Errorf("expanded String = %q, want 3@42+x", got)
	}
}

func TestVCString(t *testing.T) {
	v := New(2)
	v.SetClock(1, 7)
	if got := v.String(); got != "[0 7]" {
		t.Errorf("String = %q, want [0 7]", got)
	}
}

func BenchmarkJoin8(b *testing.B) {
	a, o := New(8), New(8)
	for i := 0; i < 8; i++ {
		o.SetClock(i, uint32(i))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Join(o)
	}
}

func BenchmarkEpochPack(b *testing.B) {
	l := DefaultLayout
	var sink Epoch
	for i := 0; i < b.N; i++ {
		sink = l.Pack(i&255, uint32(i)&l.MaxClock())
	}
	_ = sink
}
