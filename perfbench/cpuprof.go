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

// cpuModules are the program layers a CPU sample can be attributed to,
// by package name under gopim/internal/. Samples whose stack holds none
// of them (the benchmark's own client code, net/http plumbing, the
// scheduler) count as "other".
var cpuModules = []string{
	"tensor", "sparsemat", "mlp", "gcn", "predictor", "graphgen",
	"mapping", "stage", "alloc", "pipeline", "trace", "explain",
	"accel", "churn", "serve", "obs",
}

// gcFrames mark a sample as garbage-collector work wherever they sit
// in the stack: background marking and sweeping, and the assists the
// allocator charges to whichever goroutine allocates.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
}

// moduleOf attributes one sample, given its frames innermost first: to
// gc if any frame is collector work, else to the innermost frame in a
// listed gopim/internal module (so stdlib sort called from mapping
// counts as mapping), else to "other".
func moduleOf(frames []string) string {
	for _, f := range frames {
		for _, g := range gcFrames {
			if strings.HasPrefix(f, g) {
				return "gc"
			}
		}
	}
	for _, f := range frames {
		rest, ok := strings.CutPrefix(f, "gopim/internal/")
		if !ok {
			continue
		}
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			rest = rest[:i]
		}
		for _, m := range cpuModules {
			if rest == m {
				return m
			}
		}
	}
	return "other"
}

// moduleShares attributes every sample of a pprof CPU profile (gzipped
// or raw protobuf) and returns each module's share of the sampled CPU
// time, plus the sample count.
func moduleShares(prof []byte) (map[string]float64, int, error) {
	p, err := parseProfile(prof)
	if err != nil {
		return nil, 0, err
	}
	weight := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		var frames []string
		for _, id := range s.locs {
			for _, fn := range p.locFuncs[id] {
				frames = append(frames, p.strings[p.funcName[fn]])
			}
		}
		w := 1.0
		if len(s.values) > 0 {
			w = float64(s.values[len(s.values)-1])
		}
		weight[moduleOf(frames)] += w
		total += w
	}
	shares := map[string]float64{}
	for m, w := range weight {
		if total > 0 {
			shares[m] = w / total
		}
	}
	return shares, len(p.samples), nil
}

// profile is the slice of profile.proto the attribution needs.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location id → function ids, innermost first
	funcName map[uint64]int64    // function id → string-table index
	strings  []string
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

// parseProfile decodes the fields of a pprof profile that map samples
// to function names. Field numbers follow profile.proto: Profile
// {2 sample, 4 location, 5 function, 6 string_table}, Sample {1
// location_id, 2 value}, Location {1 id, 4 line}, Line {1 function_id},
// Function {1 id, 2 name}.
func parseProfile(b []byte) (*profile, error) {
	if len(b) >= 2 && b[0] == 0x1f && b[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(b))
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		if b, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(b, func(num int, v uint64, data []byte) error {
		switch num {
		case 2:
			var s sample
			err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, data)
				case 2:
					for _, x := range appendVarints(nil, v, data) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(data, func(num int, v uint64, _ []byte) error {
				switch num {
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
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	for _, n := range p.funcName {
		if n < 0 || n >= int64(len(p.strings)) {
			return nil, errors.New("cpu profile: function name outside the string table")
		}
	}
	return p, nil
}

// appendVarints appends a repeated integer field's values: v itself
// when the field came unpacked (data nil), else every varint packed
// into data.
func appendVarints(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

// eachField walks one protobuf message, calling fn with each field's
// number and either its integer value (data nil) or its bytes.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("truncated fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("truncated bytes field")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
			if data == nil {
				data = []byte{}
			}
		case 5:
			if len(b) < 4 {
				return errors.New("truncated fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}
