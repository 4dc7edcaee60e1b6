package server

import (
	"testing"

	"antidope/internal/workload"
)

func TestCrashDetachesWithoutDropping(t *testing.T) {
	s := testServer()
	s.Advance(0)
	a := fixedReq(1, workload.CollaFilt, 0.5)
	b := fixedReq(2, workload.KMeans, 0.5)
	s.Admit(0, a)
	s.Admit(0, b)
	s.Advance(0.05)

	orphans := s.Crash(0.05)
	if len(orphans) != 2 {
		t.Fatalf("crash detached %d requests, want 2", len(orphans))
	}
	for _, r := range orphans {
		if r.Dropped {
			t.Fatalf("crash marked request %d dropped; the caller decides its fate", r.ID)
		}
	}
	if s.Up() {
		t.Fatal("server still Up after Crash")
	}
	if s.Inflight() != 0 {
		t.Fatalf("crashed server holds %d in-flight", s.Inflight())
	}
	if got := s.PowerNow(); got != 0 {
		t.Fatalf("crashed server draws %g W, want 0", got)
	}
	if got := s.PowerAt(s.Model.Ladder.Max); got != 0 {
		t.Fatalf("crashed server predicts %g W, want 0", got)
	}
	if _, ok := s.NextCompletion(); ok {
		t.Fatal("crashed server still predicts a completion")
	}
	// Double crash is inert.
	if again := s.Crash(0.05); again != nil {
		t.Fatalf("second Crash returned %d requests", len(again))
	}
}

func TestCrashedServerRejectsAdmits(t *testing.T) {
	s := testServer()
	s.Advance(0)
	s.Crash(0)
	r := fixedReq(3, workload.AliNormal, 0.1)
	s.Advance(1)
	if s.Admit(1, r) {
		t.Fatal("crashed server admitted a request")
	}
	if !r.Dropped || r.DropReason != "server-down" {
		t.Fatalf("rejection not labeled: dropped=%v reason=%q", r.Dropped, r.DropReason)
	}
}

func TestRecoverRebootsAtFullFrequency(t *testing.T) {
	s := testServer()
	s.Advance(0)
	// Throttle to the ladder floor, then crash and recover: the reboot
	// forgets the throttle.
	s.CapFreq(s.Model.Ladder.Level(0))
	s.Crash(0)
	s.Advance(5)
	s.Recover(5)
	if !s.Up() {
		t.Fatal("server not Up after Recover")
	}
	//lint:allow floateq -- both sides come from the same discrete DVFS ladder
	if s.Freq() != s.Model.Ladder.Max {
		t.Fatalf("recovered at %g GHz, want ladder max %g", s.Freq(), s.Model.Ladder.Max)
	}
	if got := s.PowerNow(); got <= 0 {
		t.Fatalf("recovered idle server draws %g W, want positive idle floor", got)
	}
	r := fixedReq(4, workload.AliNormal, 0.1)
	if !s.Admit(5, r) {
		t.Fatal("recovered server rejected a request")
	}
	// Recover on an up server is inert.
	s.Recover(5)
	if !s.Up() {
		t.Fatal("redundant Recover flipped the server down")
	}
}

func TestCrashedServerConsumesNoEnergy(t *testing.T) {
	s := testServer()
	s.Advance(0)
	s.Crash(0)
	before := s.EnergyJ()
	s.Advance(100)
	if got := s.EnergyJ(); got != before {
		t.Fatalf("crashed server integrated %g J while down", got-before)
	}
}
