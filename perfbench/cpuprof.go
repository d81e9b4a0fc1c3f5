package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// modules are the kertbn/internal packages a CPU sample can be credited
// to; anything else is "other".
var modules = []string{
	"bn", "core", "dataset", "decentral", "factor", "faulty", "gateway", "graph",
	"health", "infer", "journal", "learn", "linalg", "monitor", "obs", "pool",
	"simsvc", "stats", "telemetry", "wire", "workflow", "other",
}

const internalPrefix = "kertbn/internal/"

// moduleShares credits each sample of a gzip'd pprof CPU profile to the
// deepest kertbn/internal/<module> frame on its stack, inlined frames
// included, or to "other", and returns each module's share of the CPU
// time. It reads only the profile fields it needs.
func moduleShares(profile []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var (
		strs    []string
		funcs   = map[uint64]int64{}    // function id -> name string index
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		samples []struct {
			locs  []uint64
			value int64
		}
	)
	err = fields(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s struct {
				locs  []uint64
				value int64
			}
			err := fields(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, b)
				case 2:
					vals := appendVarints(nil, wire, v, b)
					if len(vals) > 0 {
						s.value = int64(vals[len(vals)-1])
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(num int, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := fields(b, func(num int, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	credit := map[string]float64{}
	total := 0.0
	for _, s := range samples {
		mod := "other"
	stack:
		for _, l := range s.locs {
			for _, fn := range locs[l] {
				idx := funcs[fn]
				if idx < 0 || idx >= int64(len(strs)) {
					continue
				}
				if name := strs[idx]; strings.HasPrefix(name, internalPrefix) {
					rest := name[len(internalPrefix):]
					if i := strings.IndexAny(rest, "./"); i > 0 {
						rest = rest[:i]
					}
					mod = rest
					break stack
				}
			}
		}
		credit[mod] += float64(s.value)
		total += float64(s.value)
	}
	shares := map[string]float64{}
	for _, m := range modules {
		if total > 0 {
			shares[m] = credit[m] / total
		}
	}
	return shares, nil
}

var errProto = errors.New("malformed profile protobuf")

// fields walks one protobuf message, calling fn with each field's number,
// wire type, and its varint value or length-delimited bytes.
func fields(b []byte, fn func(num int, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			sub, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProto
		}
		if err := fn(num, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field given either unpacked
// (one value) or packed (length-delimited run).
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
