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

// cpuProfile is the part of a pprof CPU profile the benchmark attributes:
// every sample's stack as function names, leaf first, with its CPU time.
type cpuProfile struct {
	stacks [][]string
	values []int64
	total  int64
}

// share returns the fraction of CPU time attributed to functions whose name
// starts with one of the prefixes. With cumulative false only a sample's
// leaf function counts (self time); with cumulative true a sample counts
// once if any frame of its stack matches (time spent under the function).
func (p *cpuProfile) share(cumulative bool, prefixes ...string) float64 {
	if p == nil || p.total == 0 {
		return 0
	}
	match := func(fn string) bool {
		for _, pre := range prefixes {
			if strings.HasPrefix(fn, pre) {
				return true
			}
		}
		return false
	}
	var hit int64
	for i, st := range p.stacks {
		if len(st) == 0 {
			continue
		}
		if !cumulative {
			if match(st[0]) {
				hit += p.values[i]
			}
			continue
		}
		for _, fn := range st {
			if match(fn) {
				hit += p.values[i]
				break
			}
		}
	}
	return float64(hit) / float64(p.total)
}

// parseCPUProfile decodes a gzip-compressed pprof profile (the format
// runtime/pprof writes) far enough to attribute samples to functions. The
// last sample value is taken as the sample's weight (CPU nanoseconds for a
// CPU profile). Inlined frames are expanded, innermost first.
func parseCPUProfile(data []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> string index
		strs      []string
	)
	err = forEachField(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s sample
			err := forEachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendPacked(&s.locs, w, v, b)
				case 2:
					var u []uint64
					if err := appendPacked(&u, w, v, b); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := forEachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return forEachField(b, func(f, w int, v uint64, b []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := forEachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &cpuProfile{}
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				name := ""
				if i := funcNames[fid]; i >= 0 && int(i) < len(strs) {
					name = strs[i]
				}
				stack = append(stack, name)
			}
		}
		w := s.values[len(s.values)-1]
		p.stacks = append(p.stacks, stack)
		p.values = append(p.values, w)
		p.total += w
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// forEachField walks the fields of one protobuf message. For varint fields
// v holds the value; for length-delimited fields b holds the payload.
// Fixed-width fields are skipped.
func forEachField(msg []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, which the encoder may write
// either packed (one length-delimited run) or as single varints.
func appendPacked(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
