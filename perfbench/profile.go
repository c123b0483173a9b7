package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal reader for the gzipped protobuf CPU profiles runtime/pprof
// writes: just enough of profile.proto to attribute each sample to the
// function of its leaf frame. Field numbers are profile.proto's.
const (
	profSample   = 2
	profLocation = 4
	profFunction = 5
	profStrings  = 6

	sampleLocation = 1
	sampleValue    = 2

	locationID   = 1
	locationLine = 4

	lineFunction = 1

	functionID   = 1
	functionName = 2
)

// layerOf maps a fully qualified function name to the repository layer
// (package) it belongs to; anything else is "other".
func layerOf(fn string) string {
	pkg := fn
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(pkg, "sero/internal/"):
		switch l := strings.TrimPrefix(pkg, "sero/internal/"); l {
		case "medium", "ecc", "device", "lfs", "array", "core":
			return l
		}
	}
	return "other"
}

// cpuLayers are the layers host.cpu_share reports, "other" last.
var cpuLayers = []string{"medium", "ecc", "device", "lfs", "array", "core", "runtime", "other"}

// leafSamples decodes a CPU profile and adds each sample's count to the
// layer of its leaf frame.
func leafSamples(gz []byte, into map[string]int64) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		leaf  uint64
		count int64
	}
	var (
		samples []sample
		locFn   = map[uint64]uint64{} // location id → leaf function id
		fnName  = map[uint64]int64{}  // function id → string index
		strs    []string
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case profSample:
			var s sample
			first := true
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case sampleLocation:
					return varints(v, b, func(x uint64) {
						if first {
							s.leaf, first = x, false
						}
					})
				case sampleValue:
					n := 0
					return varints(v, b, func(x uint64) {
						if n == 0 {
							s.count = int64(x)
						}
						n++
					})
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case profLocation:
			var id, fn uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case locationID:
					id = v
				case locationLine:
					if fn != 0 {
						return nil // line[0] is the innermost (leaf) frame
					}
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == lineFunction {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locFn[id] = fn
			return err
		case profFunction:
			var id uint64
			var name int64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case profStrings:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for _, s := range samples {
		name := ""
		if idx, ok := fnName[locFn[s.leaf]]; ok && idx >= 0 && idx < int64(len(strs)) {
			name = strs[idx]
		}
		into[layerOf(name)] += s.count
	}
	return nil
}

var errProto = errors.New("malformed protobuf")

// fields walks one protobuf message, calling fn with each field's
// number and either its varint value (b nil) or its bytes.
func fields(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errProto
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errProto
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errProto
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errProto
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return errProto
			}
			msg = msg[4:]
		default:
			return errProto
		}
	}
	return nil
}

// varints yields a repeated varint field's values, whether it arrived
// as one unpacked value (b nil) or a packed run.
func varints(v uint64, b []byte, yield func(uint64)) error {
	if b == nil {
		yield(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		yield(x)
		b = b[n:]
	}
	return nil
}
