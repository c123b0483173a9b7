package serve

import (
	"testing"

	"sero/internal/trace"
)

// TestTraceReconcilesWithHistograms is the reconciliation property:
// the serve-layer span stream and the report's latency accounting are
// two views of the same measurements, so they must agree exactly —
// per session, the sum of serve span durations equals the session's
// recorded TotalNS; per op kind, the span count equals the
// histogram's count; and every span's own lock-wait (V1) and device
// (V2) charges sum to the session's decomposition.
func TestTraceReconcilesWithHistograms(t *testing.T) {
	for _, sessions := range []int{1, 4} {
		tr := trace.New(trace.DefaultBuffer)
		res, err := Run(smallConfig(sessions), tr)
		if err != nil {
			t.Fatalf("sessions=%d: %v", sessions, err)
		}
		if tr.Dropped() != 0 {
			t.Fatalf("sessions=%d: %d spans dropped — grow the test buffer", sessions, tr.Dropped())
		}

		type sums struct {
			dur, lockWait, device int64
			ops                   uint64
		}
		bySession := make(map[int32]*sums)
		byKind := make(map[string]uint64)
		for _, s := range tr.Spans() {
			if s.Cat != "serve" {
				continue
			}
			ss := bySession[s.Session]
			if ss == nil {
				ss = &sums{}
				bySession[s.Session] = ss
			}
			ss.dur += s.Dur
			ss.lockWait += s.V1
			ss.device += s.V2
			ss.ops++
			byKind[s.Name]++
		}

		if len(bySession) != sessions {
			t.Fatalf("sessions=%d: spans from %d sessions", sessions, len(bySession))
		}
		for _, ps := range res.PerSession {
			got := bySession[int32(ps.Session)]
			if got == nil {
				t.Fatalf("sessions=%d: session %d has stats but no spans", sessions, ps.Session)
			}
			if got.ops != ps.Ops {
				t.Errorf("session %d: %d spans, %d recorded ops", ps.Session, got.ops, ps.Ops)
			}
			if got.dur != ps.TotalNS {
				t.Errorf("session %d: span durations sum to %d, TotalNS says %d",
					ps.Session, got.dur, ps.TotalNS)
			}
			if got.lockWait != ps.LockWaitNS {
				t.Errorf("session %d: span lock-wait sums to %d, LockWaitNS says %d",
					ps.Session, got.lockWait, ps.LockWaitNS)
			}
			if got.device != ps.DeviceNS {
				t.Errorf("session %d: span device sums to %d, DeviceNS says %d",
					ps.Session, got.device, ps.DeviceNS)
			}
			if ps.DeviceNS+ps.LockWaitNS+ps.QueueNS != ps.TotalNS {
				t.Errorf("session %d: decomposition %d+%d+%d != total %d",
					ps.Session, ps.DeviceNS, ps.LockWaitNS, ps.QueueNS, ps.TotalNS)
			}
		}
		for kind, st := range res.PerOp {
			if byKind[kind] != st.Count {
				t.Errorf("kind %s: %d spans, histogram count %d", kind, byKind[kind], st.Count)
			}
		}
	}
}

// TestUntracedRunStillDecomposes: the per-session section is part of
// the measurement, not of tracing — a nil tracer must still produce a
// complete, consistent PerSession slice.
func TestUntracedRunStillDecomposes(t *testing.T) {
	res, err := Run(smallConfig(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerSession) != 2 {
		t.Fatalf("PerSession has %d entries, want 2", len(res.PerSession))
	}
	var ops uint64
	for _, ps := range res.PerSession {
		ops += ps.Ops
		if ps.DeviceNS+ps.LockWaitNS+ps.QueueNS != ps.TotalNS {
			t.Errorf("session %d: decomposition %d+%d+%d != total %d",
				ps.Session, ps.DeviceNS, ps.LockWaitNS, ps.QueueNS, ps.TotalNS)
		}
		if ps.DeviceNS == 0 {
			t.Errorf("session %d: no device time attributed", ps.Session)
		}
	}
	if ops != res.TotalOps {
		t.Fatalf("per-session ops sum to %d, total says %d", ops, res.TotalOps)
	}
}
