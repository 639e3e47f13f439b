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

// attributeProfile reads a gzipped pprof CPU profile, as written by
// runtime/pprof, and returns the CPU nanoseconds of each attribution
// bucket (see bucketOf).
func attributeProfile(data []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	valueIdx := len(p.sampleTypes) - 1 // "cpu" nanoseconds follow "samples"
	out := make(map[string]int64)
	for _, s := range p.samples {
		var frames []string
		for _, locID := range s.locs {
			for _, fnID := range p.locLines[locID] {
				frames = append(frames, p.strings[p.funcName[fnID]])
			}
		}
		if valueIdx < 0 || valueIdx >= len(s.values) {
			return nil, errors.New("profile sample has no value for its sample type")
		}
		out[bucketOf(frames)] += s.values[valueIdx]
	}
	return out, nil
}

// bucketOf attributes one stack, leaf first, to a bucket. A stack
// inside the garbage collector goes to "gc". Otherwise the stack goes
// to the package of its leaf frame, where a runtime or standard-
// library leaf (an allocation, a map lookup, a syscall) is charged to
// the innermost repository frame that called it; the benchmark's own
// package ("main", or harmony/perfbench in its tests) is "bench". A stack with no repository frame goes to
// "runtime_sched" when it is runtime only (scheduler, parking,
// timers), and to "other" otherwise.
func bucketOf(frames []string) string {
	for _, f := range frames {
		if isGCFrame(f) {
			return "gc"
		}
	}
	allRuntime := true
	for _, f := range frames {
		pkg := packageOf(f)
		switch {
		case pkg == "main" || pkg == "harmony/perfbench":
			return "bench"
		case strings.HasPrefix(pkg, "harmony/internal/"):
			mod := strings.TrimPrefix(pkg, "harmony/internal/")
			for _, b := range cpuBuckets {
				if b == mod {
					return mod
				}
			}
			return "other"
		case pkg != "runtime" && !strings.HasPrefix(pkg, "runtime/internal") && !strings.HasPrefix(pkg, "internal/runtime"):
			allRuntime = false
		}
	}
	if allRuntime && len(frames) > 0 {
		return "runtime_sched"
	}
	return "other"
}

func isGCFrame(f string) bool {
	for _, p := range []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcMarkDone",
		"runtime.gcMarkTermination", "runtime.gcStart", "runtime.bgsweep", "runtime.bgscavenge"} {
		if strings.HasPrefix(f, p) {
			return true
		}
	}
	return false
}

// packageOf returns the import path of a function symbol such as
// "harmony/internal/sparse.(*DistMatrix).MatVec" or
// "runtime.mallocgc".
func packageOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// profile is the part of a pprof profile attribution needs.
type profile struct {
	sampleTypes []int64 // string-table index of each sample type
	samples     []profSample
	locLines    map[uint64][]uint64 // location id -> function ids, innermost first
	funcName    map[uint64]int64    // function id -> string-table index
	strings     []string
}

type profSample struct {
	locs   []uint64
	values []int64
}

// decodeProfile decodes the fields of the pprof protobuf message
// (github.com/google/pprof/proto/profile.proto) that attribution
// reads: sample_type (1), sample (2), location (4), function (5) and
// string_table (6). Everything else is skipped.
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locLines: make(map[uint64][]uint64), funcName: make(map[uint64]int64)}
	err := eachField(b, func(num int, wire int, v uint64, msg []byte) error {
		switch num {
		case 1:
			return eachField(msg, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					p.sampleTypes = append(p.sampleTypes, int64(v))
				}
				return nil
			})
		case 2:
			var s profSample
			err := eachField(msg, func(n, w int, v uint64, sub []byte) error {
				switch n {
				case 1:
					return appendVarints(w, v, sub, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return appendVarints(w, v, sub, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(msg, func(n, _ int, v uint64, sub []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(sub, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locLines[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(msg, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.funcName {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, fmt.Errorf("function name index %d outside the string table", idx)
		}
	}
	return p, nil
}

// appendVarints delivers a repeated integer field in either encoding:
// one varint per field (wire type 0) or a packed run (wire type 2).
func appendVarints(wire int, v uint64, packed []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		add(x)
		packed = packed[n:]
	}
	return nil
}

// eachField calls fn for every field of a protobuf message: varint
// fields (wire type 0) carry v, length-delimited ones (2) carry msg.
func eachField(b []byte, fn func(num, wire int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var msg []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			msg = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, msg); err != nil {
			return err
		}
	}
	return nil
}
