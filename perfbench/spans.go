package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"sero/internal/trace"
)

// spanLog holds the benchmark's own host-time spans for one traced
// repetition. The spans live in an internal/trace.Tracer ring; Start
// and Dur hold host nanoseconds since the log's epoch (not virtual
// time), Cat names the layer ("harness", "lfs" or "device") and
// Session the session lane, or -1 for a device call lfs issued without
// a task.
type spanLog struct {
	tr    *trace.Tracer
	epoch time.Time
	// tasks maps each in-flight op's *trace.Task to its session, so a
	// device call made on behalf of that task lands in the right lane.
	tasks sync.Map
}

func newSpanLog(capacity int) *spanLog {
	return &spanLog{tr: trace.New(capacity), epoch: time.Now()}
}

func (l *spanLog) emit(cat, name string, session int32, h0 time.Time, dur time.Duration) {
	l.tr.Emit(trace.Span{
		Name: name, Cat: cat, Session: session,
		Start: int64(h0.Sub(l.epoch)), Dur: int64(dur),
	})
}

// device records one decorator→device call.
func (l *spanLog) device(method int, task *trace.Task, h0 time.Time, dur time.Duration) {
	session := int32(-1)
	if task != nil {
		if v, ok := l.tasks.Load(task); ok {
			session = v.(int32)
		}
	}
	l.emit("device", methodNames[method], session, h0, dur)
}

// kindTime is the host time spent in one kind of harness→lfs call.
type kindTime struct {
	n     int
	total time.Duration
}

// selfTimes is the per-layer split of host time inside a window.
type selfTimes struct {
	// harness is session-lane time outside every lfs call, lfs the time
	// inside lfs calls not covered by device calls, device the time
	// inside device calls.
	harness, lfs, device time.Duration
	// byKind is the total host time of each lfs call name.
	byKind map[string]kindTime
}

// analyse splits host time inside [from, to) into per-layer self time:
// a span's self time is its duration minus the part its child spans
// cover. Session spans (Cat "harness") parent lfs spans of the same
// lane; lfs spans parent the device spans of their lane, and a device
// span without a lane goes to whichever lfs span encloses it.
func (l *spanLog) analyse(from, to time.Time) (selfTimes, error) {
	if d := l.tr.Dropped(); d > 0 {
		return selfTimes{}, fmt.Errorf("span log dropped %d spans", d)
	}
	lo, hi := int64(from.Sub(l.epoch)), int64(to.Sub(l.epoch))
	var lanes, calls, devs []trace.Span
	for _, s := range l.tr.Spans() {
		if s.Start < lo || s.Start >= hi {
			continue
		}
		switch s.Cat {
		case "harness":
			lanes = append(lanes, s)
		case "lfs":
			calls = append(calls, s)
		case "device":
			devs = append(devs, s)
		}
	}
	st := selfTimes{byKind: make(map[string]kindTime)}
	covered := make([]int64, len(calls)) // device time inside each lfs call
	for _, d := range devs {
		st.device += time.Duration(d.Dur)
		if i := enclosing(calls, d); i >= 0 {
			covered[i] += d.Dur
		}
	}
	var inCalls int64
	for i, c := range calls {
		st.lfs += time.Duration(c.Dur - covered[i])
		inCalls += c.Dur
		k := st.byKind[c.Name]
		k.n++
		k.total += time.Duration(c.Dur)
		st.byKind[c.Name] = k
	}
	var laneTime int64
	for _, s := range lanes {
		laneTime += s.Dur
	}
	st.harness = time.Duration(laneTime - inCalls)
	return st, nil
}

// enclosing returns the index of the lfs call (spans sorted by start)
// that contains device span d in d's lane — any lane when d has none —
// or -1.
func enclosing(calls []trace.Span, d trace.Span) int {
	i := sort.Search(len(calls), func(i int) bool { return calls[i].Start > d.Start })
	// Calls of one lane never overlap, so the latest call of d's lane
	// that starts before d is the only candidate; a laneless span looks
	// back over a few calls of any lane.
	for tries := 0; i > 0 && tries < 64; tries++ {
		i--
		c := calls[i]
		if d.Session >= 0 && c.Session != d.Session {
			continue
		}
		if c.Start+c.Dur >= d.Start+d.Dur {
			return i
		}
		if d.Session >= 0 {
			return -1
		}
	}
	return -1
}
