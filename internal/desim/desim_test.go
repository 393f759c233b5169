package desim

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestTimeConversions(t *testing.T) {
	if Second.Seconds() != 1.0 {
		t.Errorf("Second.Seconds() = %v", Second.Seconds())
	}
	if FromSeconds(2.5) != 2*Second+500*Millisecond {
		t.Errorf("FromSeconds(2.5) = %v", FromSeconds(2.5))
	}
	// ARM7 DVS periods are exact in femtoseconds.
	for _, tc := range []struct {
		hz   float64
		want Time
	}{{200e6, 5 * Nanosecond}, {100e6, 10 * Nanosecond}, {200e6 / 3, 15 * Nanosecond}} {
		if got, err := PeriodOf(tc.hz); err != nil || got != tc.want {
			t.Errorf("PeriodOf(%g) = %v, %v; want %v", tc.hz, got, err, tc.want)
		}
	}
	for _, hz := range []float64{0, -5, math.NaN()} {
		if _, err := PeriodOf(hz); err == nil {
			t.Errorf("PeriodOf(%g) accepted a non-positive frequency", hz)
		}
	}
}

// TestTimeRange holds every conversion and the kernel to ±MaxTime: a value
// beyond it is an error, never a wrapped Time.
func TestTimeRange(t *testing.T) {
	if MaxTime.Seconds() < 9223 || MaxTime.Seconds() > 9224 {
		t.Fatalf("MaxTime = %v s, want about 9223 s", MaxTime.Seconds())
	}
	inRange := func(what string, got Time, err error, want Time) {
		t.Helper()
		if err != nil || got != want {
			t.Errorf("%s = %v, %v; want %v", what, got, err, want)
		}
	}
	refused := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "9223 s") {
			t.Errorf("%s: error %v, want one naming the ±9223 s range", what, err)
		}
	}
	got, err := ToTime(9000)
	inRange("ToTime(9000)", got, err, 9000*Second)
	got, err = ToTime(-9000)
	inRange("ToTime(-9000)", got, err, -9000*Second)
	for _, s := range []float64{9224, -9224, math.Inf(1), math.NaN(), MaxTime.Seconds()} {
		_, err := ToTime(s)
		refused(fmt.Sprintf("ToTime(%g)", s), err)
	}
	_, err = PeriodOf(1e-4) // 10⁴ s
	refused("PeriodOf(1e-4 Hz)", err)

	got, err = Mul(900e9, 10*Nanosecond)
	inRange("Mul(9e11, 10ns)", got, err, 9000*Second)
	_, err = Mul(1e12, 10*Nanosecond)
	refused("Mul(1e12, 10ns)", err)
	_, err = Mul(2e12, 10*Nanosecond) // wraps to 1553.26 s unchecked
	refused("Mul(2e12, 10ns)", err)
	got, err = Sum(MaxTime-2, 1, 1)
	inRange("Sum(MaxTime-2, 1, 1)", got, err, MaxTime)
	_, err = Sum(MaxTime-1, 1, 1)
	refused("Sum(MaxTime-1, 1, 1)", err)

	k := NewKernel()
	if err := k.After(9000*Second, func() {}); err != nil {
		t.Fatal(err)
	}
	k.Run()
	refused("After past MaxTime", k.After(300*Second, func() {}))
	if err := k.After(MaxTime-k.Now(), func() {}); err != nil {
		t.Errorf("After up to MaxTime: %v", err)
	}
}

func TestKernelOrdering(t *testing.T) {
	k := NewKernel()
	var order []int
	add := func(at Time, id int) {
		if err := k.At(at, func() { order = append(order, id) }); err != nil {
			t.Fatal(err)
		}
	}
	add(30, 3)
	add(10, 1)
	add(20, 2)
	add(10, 11) // same time as id 1, scheduled later -> fires later
	end := k.Run()
	if end != 30 {
		t.Errorf("final time = %v", end)
	}
	want := []int{1, 11, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("firing order = %v, want %v", order, want)
		}
	}
	if k.EventsFired() != 4 {
		t.Errorf("EventsFired = %d", k.EventsFired())
	}
}

func TestKernelErrors(t *testing.T) {
	k := NewKernel()
	_ = k.At(100, func() {})
	k.Run()
	if err := k.At(50, func() {}); err == nil {
		t.Error("scheduling into the past accepted")
	}
	if err := k.After(-1, func() {}); err == nil {
		t.Error("negative delay accepted")
	}
	if err := k.After(1, nil); err == nil {
		t.Error("nil callback accepted")
	}
}

func TestEventsCanScheduleEvents(t *testing.T) {
	k := NewKernel()
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 10 {
			if err := k.After(5, recurse); err != nil {
				t.Fatal(err)
			}
		}
	}
	_ = k.After(5, recurse)
	end := k.Run()
	if depth != 10 || end != 50 {
		t.Errorf("depth=%d end=%v, want 10 and 50", depth, end)
	}
}

func TestStepOnEmpty(t *testing.T) {
	k := NewKernel()
	if k.Step() {
		t.Error("Step on empty queue reported work")
	}
	if k.Now() != 0 {
		t.Error("time moved with no events")
	}
}
