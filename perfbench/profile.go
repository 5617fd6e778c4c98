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

// The traced pass runs under the Go CPU profiler. Its samples are the
// only outside view of time spent below core's public functions (the
// channel list, the via map and the single-layer algorithms), so the
// benchmark folds them into flat CPU time per package. The standard
// library has no reader for the profile format; the small protobuf
// decoder below reads just the fields needed.

// profilePackages are the packages whose flat CPU time is reported;
// everything else of the repository's is "repo", and all else "other".
var profilePackages = []string{
	"layer", "viamap", "sla", "core", "board", "stringer", "netlist",
	"boardio", "verify", "drc", "server", "fleet", "repo", "runtime", "other",
}

// flatCPU returns the CPU seconds whose innermost frame lies in each of
// profilePackages, 0 for a package the profile never sampled.
func flatCPU(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	var (
		strs      []string
		funcName  = map[uint64]int64{}  // function id -> string index
		locFunc   = map[uint64]uint64{} // location id -> innermost function id
		leafNanos = map[uint64]int64{}  // location id -> CPU nanoseconds
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample: location_id (1), value (2) = [samples, cpu ns]
			var locs, vals []uint64
			if err := eachField(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					locs = appendPacked(locs, w, v, b)
				case 2:
					vals = appendPacked(vals, w, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(locs) > 0 && len(vals) >= 2 {
				leafNanos[locs[0]] += int64(vals[1])
			}
		case 4: // Location: id (1), line (4) whose function_id (1) comes innermost first
			var id, fn uint64
			seen := false
			if err := eachField(b, func(n, w int, v uint64, b []byte) error {
				switch {
				case n == 1:
					id = v
				case n == 4 && !seen:
					seen = true
					return eachField(b, func(n, w int, v uint64, _ []byte) error {
						if n == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFunc[id] = fn
		case 5: // Function: id (1), name (2)
			var id uint64
			var name int64
			if err := eachField(b, func(n, w int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := make(map[string]float64, len(profilePackages))
	for _, pkg := range profilePackages {
		out[pkg] = 0
	}
	for loc, ns := range leafNanos {
		name := ""
		if si := funcName[locFunc[loc]]; si >= 0 && si < int64(len(strs)) {
			name = strs[si]
		}
		out[packageOf(name)] += float64(ns) / 1e9
	}
	return out, nil
}

// packageOf maps a fully qualified function name to a profilePackages
// entry.
func packageOf(fn string) string {
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") || strings.HasPrefix(fn, "internal/runtime/") {
		return "runtime"
	}
	rest, ok := strings.CutPrefix(fn, "repro/internal/")
	if !ok {
		if strings.HasPrefix(fn, "repro/") || strings.HasPrefix(fn, "main.") {
			return "repo"
		}
		return "other"
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	for _, p := range profilePackages {
		if p == rest {
			return p
		}
	}
	return "repo"
}

// eachField calls f for every field of one protobuf message: varint
// fields pass v, length-delimited fields pass b.
func eachField(msg []byte, f func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := f(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, packed or not.
func appendPacked(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
