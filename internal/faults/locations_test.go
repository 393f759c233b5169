package faults

import (
	"math"
	"math/rand"
	"testing"
)

func TestSampleUpsetsStatistics(t *testing.T) {
	c := &Campaign{
		Items: []ExposureItem{
			{Core: 0, Label: "r1", Bits: 1000, Cycles: 1_000_000},
			{Core: 1, Label: "r2", Bits: 500, Cycles: 4_000_000},
		},
		Lambda: []float64{2e-6, 1e-6},
	}
	rng := rand.New(rand.NewSource(8))
	ups, err := c.SampleUpsets(rng, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Expectations: r1 = 2e-6*1e9 = 2000; r2 = 1e-6*2e9 = 2000.
	perLabel := map[string]int{}
	for _, u := range ups {
		perLabel[u.Label]++
		switch u.Label {
		case "r1":
			if u.Core != 0 || u.Bit < 0 || u.Bit >= 1000 || u.Cycle < 0 || u.Cycle >= 1_000_000 {
				t.Fatalf("out-of-range upset %+v", u)
			}
		case "r2":
			if u.Core != 1 || u.Bit >= 500 || u.Cycle >= 4_000_000 {
				t.Fatalf("out-of-range upset %+v", u)
			}
		}
	}
	for _, label := range []string{"r1", "r2"} {
		n := float64(perLabel[label])
		if math.Abs(n-2000) > 6*math.Sqrt(2000) {
			t.Errorf("%s: %v upsets, want ≈2000", label, n)
		}
	}
	// Bit positions roughly uniform: mean near bits/2.
	var sumBit float64
	for _, u := range ups {
		if u.Label == "r1" {
			sumBit += float64(u.Bit)
		}
	}
	meanBit := sumBit / float64(perLabel["r1"])
	if math.Abs(meanBit-500) > 50 {
		t.Errorf("r1 mean bit = %v, want ≈500 (uniform)", meanBit)
	}
}

func TestSampleUpsetsCap(t *testing.T) {
	c := &Campaign{
		Items:  []ExposureItem{{Core: 0, Label: "r", Bits: 1 << 20, Cycles: 1 << 20}},
		Lambda: []float64{1e-6},
	}
	ups, err := c.SampleUpsets(rand.New(rand.NewSource(1)), 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) != 100 {
		t.Errorf("cap ignored: got %d upsets", len(ups))
	}
}

func TestSampleUpsetsInvalidCampaign(t *testing.T) {
	if _, err := (&Campaign{}).SampleUpsets(rand.New(rand.NewSource(1)), 0); err == nil {
		t.Error("invalid campaign accepted")
	}
}

func TestAttributeToTasks(t *testing.T) {
	ups := []Upset{
		{Label: "shared"}, {Label: "shared"}, {Label: "local_a"},
		{Label: "baseline"}, // not in usedBy -> "(baseline)"
	}
	usedBy := map[string][]string{
		"shared":  {"TaskA", "TaskB"},
		"local_a": {"TaskA"},
	}
	impacts := AttributeToTasks(ups, usedBy)
	byTask := map[string]TaskImpact{}
	for _, im := range impacts {
		byTask[im.Task] = im
	}
	if byTask["TaskA"].Upsets != 3 {
		t.Errorf("TaskA upsets = %d, want 3", byTask["TaskA"].Upsets)
	}
	if byTask["TaskB"].Upsets != 2 {
		t.Errorf("TaskB upsets = %d, want 2", byTask["TaskB"].Upsets)
	}
	if byTask["(baseline)"].Upsets != 1 {
		t.Errorf("baseline upsets = %d, want 1", byTask["(baseline)"].Upsets)
	}
	// Sorted descending.
	if impacts[0].Task != "TaskA" {
		t.Errorf("impacts not sorted: %+v", impacts)
	}
	if math.Abs(byTask["TaskA"].Percent-75) > 1e-9 {
		t.Errorf("TaskA percent = %v, want 75 (3 of 4 upsets)", byTask["TaskA"].Percent)
	}
}
