package experiments

import (
	"fmt"
	"strings"

	"sero/internal/medium"
	"sero/internal/physics"
)

// E10 — heat-pulse engineering (§7's open questions: "More research
// will be needed to determine the time required, the amount of energy
// dissipated ... and the effect of heating one dot on the neighbouring
// dots"). The electrical write is a probe-current pulse; its peak
// temperature and dwell decide (a) how many pulses destroy the target
// dot and (b) how much collateral damage neighbours accumulate. The
// experiment sweeps pulse temperature and the substrate heat-sinking
// quality (neighbour attenuation factor).

// E10Point is one pulse configuration.
type E10Point struct {
	// PulseTempC is the heat pulse's peak temperature in °C.
	PulseTempC float64
	// SingleMix is the interface mixing of one pulse on a pristine dot.
	SingleMix float64
	// PulsesToHeat is the number of pulses needed to destroy the dot,
	// or 0 when no number of pulses suffices (equilibrium-limited).
	PulsesToHeat int
	// NeighborDamagePerWrite is the damage a neighbour accumulates per
	// adjacent write at the default attenuation.
	NeighborDamagePerWrite float64
	// WritesUntilNeighborDead is how many adjacent writes destroy a
	// neighbour dot (0 = never).
	WritesUntilNeighborDead int
}

// E10Result is the sweep.
type E10Result struct {
	// Points holds one row per pulse temperature.
	Points []E10Point
	// AttenuationSweep: at a fixed 900 °C pulse, writes-to-kill-a-
	// neighbour versus the neighbour attenuation factor.
	Attenuation []E10Attenuation
}

// E10Attenuation is one heat-sinking configuration.
type E10Attenuation struct {
	// Factor scales the pulse temperature a neighbour dot sees.
	Factor float64
	// WritesUntilNeighborDead is how many adjacent writes destroy a
	// neighbour dot (0 = never).
	WritesUntilNeighborDead int
}

// RunE10 sweeps pulse temperature and substrate attenuation.
func RunE10() E10Result {
	var res E10Result
	const dwell = 50e-6
	for _, temp := range []float64{550, 600, 650, 700, 800, 900} {
		pt := E10Point{
			PulseTempC: temp,
			SingleMix:  physics.PulseMixing(temp, dwell),
		}
		pt.PulsesToHeat = pulsesToHeat(temp, dwell, 1.0, 10000)
		pt.NeighborDamagePerWrite = physics.PulseMixing(temp*0.4, dwell)
		pt.WritesUntilNeighborDead = pulsesToHeat(temp*0.4, dwell, 1.0, 1000000)
		res.Points = append(res.Points, pt)
	}
	for _, factor := range []float64{0.3, 0.4, 0.5, 0.6, 0.7} {
		res.Attenuation = append(res.Attenuation, E10Attenuation{
			Factor:                  factor,
			WritesUntilNeighborDead: pulsesToHeat(900*factor, dwell, 1.0, 1000000),
		})
	}
	return res
}

// pulsesToHeat simulates repeated pulses at tempC on one dot and
// returns how many cross the destruction threshold; 0 when maxPulses
// is reached first (equilibrium-limited: repetition cannot destroy).
func pulsesToHeat(tempC, dwell, _ float64, maxPulses int) int {
	damage := 0.0
	for n := 1; n <= maxPulses; n++ {
		next := physics.PulseDamage(tempC, dwell, damage)
		if next <= damage {
			return 0 // equilibrium reached below the threshold
		}
		damage = next
		if damage >= physics.HeatedDamageThreshold {
			return n
		}
	}
	return 0
}

// VerifyAgainstMedium cross-checks the analytic sweep against the
// actual medium implementation for the default configuration; returns
// an error message or "".
func (r E10Result) VerifyAgainstMedium() string {
	m := medium.New(medium.DefaultParams(1, 8).Quiet())
	m.EWB(0)
	if m.State(0) != medium.DotH {
		return "default pulse failed to destroy the target dot"
	}
	if m.State(1) == medium.DotH {
		return "default pulse destroyed a neighbour"
	}
	return ""
}

// Table renders E10.
func (r E10Result) Table() string {
	var b strings.Builder
	b.WriteString("E10 — heat-pulse engineering (50 µs dwell)\n")
	b.WriteString("pulse °C  mix/pulse  pulses-to-heat  neighbour-mix/write\n")
	for _, p := range r.Points {
		pulses := "never"
		if p.PulsesToHeat > 0 {
			pulses = fmt.Sprintf("%d", p.PulsesToHeat)
		}
		fmt.Fprintf(&b, "%8.0f %10.3f %15s %20.2e\n",
			p.PulseTempC, p.SingleMix, pulses, p.NeighborDamagePerWrite)
	}
	b.WriteString("substrate heat-sinking: neighbour sees factor × pulse temperature (900 °C write)\n")
	b.WriteString("factor   adjacent-writes-to-kill-neighbour\n")
	for _, a := range r.Attenuation {
		n := "never"
		if a.WritesUntilNeighborDead > 0 {
			n = fmt.Sprintf("%d", a.WritesUntilNeighborDead)
		}
		fmt.Fprintf(&b, "%6.1f   %s\n", a.Factor, n)
	}
	b.WriteString("paper §7: conduct heat into the substrate; use the write-once operation sparingly\n")
	return b.String()
}
