package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A CPU profile is read from the pprof wire format (a gzipped
// profile.proto message) with just enough of a protobuf decoder to walk
// samples, locations and functions; the toolchain's own parser lives
// outside the standard library.

// profileStack is one profile sample: its stack as function names, leaf
// (innermost, inlined callee first) to root, and its weight in CPU
// nanoseconds.
type profileStack struct {
	frames []string
	weight int64
}

// decodeProfile parses a pprof profile, gzipped or not, into its stacks.
func decodeProfile(data []byte) ([]profileStack, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type sample struct{ locs, values []uint64 }
	var (
		strs        []string
		sampleTypes [][2]uint64 // (type, unit) string indexes
		samples     []sample
		locLines    = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames   = map[uint64]uint64{}   // function id → name string index
	)
	err := walkFields(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var vt [2]uint64
			err := walkFields(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					vt[n-1] = v
				}
				return nil
			})
			sampleTypes = append(sampleTypes, vt)
			return err
		case 2: // sample
			var s sample
			err := walkFields(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendPacked(&s.locs, w, v, b)
				case 2:
					return appendPacked(&s.values, w, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walkFields(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return walkFields(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := walkFields(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	// Weight by CPU time when the profile has a "cpu" value, else by the
	// last value (sample count).
	valueIdx := len(sampleTypes) - 1
	for i, vt := range sampleTypes {
		if vt[0] < uint64(len(strs)) && strs[vt[0]] == "cpu" {
			valueIdx = i
		}
	}
	name := func(fn uint64) string {
		if i, ok := funcNames[fn]; ok && i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := make([]profileStack, 0, len(samples))
	for _, s := range samples {
		if valueIdx < 0 || valueIdx >= len(s.values) {
			continue
		}
		st := profileStack{weight: int64(s.values[valueIdx])}
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				st.frames = append(st.frames, name(fn))
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// appendPacked appends a repeated varint field, packed (wire type 2) or
// not (wire type 0).
func appendPacked(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := readVarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// walkFields calls fn for every field of one protobuf message. Varint
// fields arrive in v; length-delimited fields in b; fixed-width fields are
// skipped.
func walkFields(data []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := readVarint(data)
		if n <= 0 {
			return errors.New("bad field key")
		}
		data = data[n:]
		num, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := readVarint(data)
			if n <= 0 {
				return errors.New("bad varint")
			}
			data = data[n:]
			if err := fn(num, wire, v, nil); err != nil {
				return err
			}
		case 1:
			if len(data) < 8 {
				return errors.New("short fixed64")
			}
			data = data[8:]
		case 2:
			l, n := readVarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("bad length")
			}
			b := data[n : n+int(l)]
			data = data[n+int(l):]
			if err := fn(num, wire, 0, b); err != nil {
				return err
			}
		case 5:
			if len(data) < 4 {
				return errors.New("short fixed32")
			}
			data = data[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// readVarint decodes one base-128 varint, returning its length (0 when
// the input is truncated or overlong).
func readVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// internalPrefix marks the program's own modules in symbol names.
const internalPrefix = "tempriv/internal/"

// moduleOf returns the tempriv/internal module a function belongs to
// ("network", "cluster/gateway"), or "" for any other function.
func moduleOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexByte(rest, '.'); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// shareBuckets maps a module to the layer its CPU is reported under, as
// the benchmark's per-layer table groups them. Modules not listed go to
// "other"; samples with no tempriv/internal frame at all go to "gc".
var shareBuckets = map[string]string{
	"sim":        "sim",
	"network":    "network",
	"routing":    "network",
	"topology":   "network",
	"buffer":     "buffer",
	"rng":        "rng",
	"adversary":  "adversary",
	"queueing":   "adversary",
	"experiment": "experiment",
	"metrics":    "experiment",
	"report":     "experiment",
}

// shareNames lists the buckets cpuShares reports, in output order.
var shareNames = []string{"sim", "network", "buffer", "adversary", "rng", "experiment", "gc", "other"}

// attribute charges a stack to the innermost tempriv/internal frame's
// bucket, so runtime work (map lookups, allocation) is billed to the
// module that caused it.
func attribute(frames []string) string {
	for _, f := range frames {
		if m := moduleOf(f); m != "" {
			if b, ok := shareBuckets[m]; ok {
				return b
			}
			return "other"
		}
	}
	return "gc"
}

// cpuShares returns each bucket's share of the stacks' total weight.
func cpuShares(stacks []profileStack) map[string]float64 {
	out := make(map[string]float64, len(shareNames))
	var total int64
	for _, s := range stacks {
		out[attribute(s.frames)] += float64(s.weight)
		total += s.weight
	}
	for _, b := range shareNames {
		if total > 0 {
			out[b] /= float64(total)
		}
	}
	return out
}
