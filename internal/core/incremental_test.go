package core

import (
	"errors"
	"testing"

	"sero/internal/device"
)

// TestStepPublishesFindingWithItsRepair holds a repair open and checks
// that no reader sees the finding until the repair has returned, then
// that the finding and its repair outcome appear together.
func TestStepPublishesFindingWithItsRepair(t *testing.T) {
	s := testStore(t, 16)
	start, logN, err := s.WriteLine([][]byte{block(5), block(6), block(7)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Heat(start, logN); err != nil {
		t.Fatal(err)
	}
	dev := s.Device().(*device.Device)
	bits := device.ForgedFrameBits(start+1, block(0xEE))
	base := int(start+1) * device.DotsPerBlock
	for i, b := range bits {
		dev.Medium().MWB(base+i, b)
	}

	aud := NewIncrementalAuditor(dev)
	inRepair, release := make(chan struct{}), make(chan struct{})
	aud.SetRepairer(func(uint64) (device.LineInfo, error) {
		close(inRepair)
		<-release
		return device.LineInfo{}, errors.New("no spare media")
	})
	done := make(chan StepReport)
	go func() { done <- aud.Step(1) }()

	<-inRepair
	if n := len(aud.Findings()); n != 0 {
		t.Fatalf("%d findings visible while the repair still runs", n)
	}
	if st := aud.Stats(); st.Findings != 0 || st.RepairFailures != 0 {
		t.Fatalf("counters moved before the repair returned: %+v", st)
	}
	close(release)
	rep := <-done
	if len(rep.Findings) != 1 || rep.Repaired != 0 {
		t.Fatalf("step report %+v", rep)
	}
	if st := aud.Stats(); st.Findings != 1 || st.RepairFailures != 1 || st.Repairs != 0 {
		t.Fatalf("counters after the step: %+v", st)
	}
	if n := len(aud.Findings()); n != 1 {
		t.Fatalf("%d findings after the step, want 1", n)
	}
}
