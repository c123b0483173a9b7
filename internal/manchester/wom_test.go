package manchester

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestWOMFirstWriteRead(t *testing.T) {
	for v := byte(0); v < 4; v++ {
		var c WOMCell
		if err := c.Write(v); err != nil {
			t.Fatal(err)
		}
		got, err := c.Read()
		if err != nil || got != v {
			t.Fatalf("read %d err %v, want %d", got, err, v)
		}
	}
}

func TestWOMSecondWriteRead(t *testing.T) {
	for v1 := byte(0); v1 < 4; v1++ {
		for v2 := byte(0); v2 < 4; v2++ {
			var c WOMCell
			if err := c.Write(v1); err != nil {
				t.Fatal(err)
			}
			if err := c.Write(v2); err != nil {
				t.Fatalf("second write %d after %d: %v", v2, v1, err)
			}
			got, err := c.Read()
			if err != nil || got != v2 {
				t.Fatalf("after %d,%d read %d err %v", v1, v2, got, err)
			}
		}
	}
}

func TestWOMWriteIsMonotone(t *testing.T) {
	// Property: a Write never clears a dot — the physical write-once
	// constraint.
	f := func(v1, v2 byte) bool {
		var c WOMCell
		before := c.Dots()
		_ = c.Write(v1 % 4)
		mid := c.Dots()
		_ = c.Write(v2 % 4)
		after := c.Dots()
		return monotone(before, mid) && monotone(mid, after)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func monotone(a, b [3]bool) bool {
	for i := range a {
		if a[i] && !b[i] {
			return false
		}
	}
	return true
}

func TestWOMThirdWriteExhausted(t *testing.T) {
	var c WOMCell
	if err := c.Write(1); err != nil {
		t.Fatal(err)
	}
	if err := c.Write(2); err != nil {
		t.Fatal(err)
	}
	err := c.Write(3)
	if !errors.Is(err, ErrWOMExhausted) {
		t.Fatalf("third distinct write: %v", err)
	}
	// Writing the same value again is a no-op, not an error.
	if err := c.Write(2); err != nil {
		t.Fatalf("idempotent rewrite: %v", err)
	}
}

func TestWOMInvalidPattern(t *testing.T) {
	var c WOMCell
	c.SetDots([3]bool{true, true, false})
	// 110 is gen2 value 11 — valid. Use an actually invalid pattern:
	// there is none in 3 dots (8 patterns: 4 gen1 + 4 gen2 = 8).
	// The Rivest-Shamir code is perfect; every pattern decodes. Tamper
	// evidence therefore comes from *semantic* invalidity (exhausted
	// rewrites), not per-cell invalid codes. Verify all 8 decode.
	for bits := 0; bits < 8; bits++ {
		c.SetDots([3]bool{bits&4 != 0, bits&2 != 0, bits&1 != 0})
		if _, err := c.Read(); err != nil {
			t.Fatalf("pattern %03b failed to decode: %v", bits, err)
		}
	}
}

func TestWOMValueRangePanics(t *testing.T) {
	var c WOMCell
	defer func() {
		if recover() == nil {
			t.Fatal("Write(4) did not panic")
		}
	}()
	_ = c.Write(4)
}

func TestDotsPerBit(t *testing.T) {
	if DotsPerBit(false) != 2 {
		t.Fatal("manchester density")
	}
	if DotsPerBit(true) != 1.5 {
		t.Fatal("WOM density")
	}
}
