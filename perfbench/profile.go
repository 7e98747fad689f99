package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file decodes the runtime/pprof CPU profile (gzipped profile.proto)
// with the standard library alone, and folds its samples onto the
// repository's layers.

// profile is the part of profile.proto the fold needs.
type profile struct {
	sampleTypes []string // type name of each sample value
	samples     []profSample
	locations   map[uint64][]uint64 // location id -> function ids, innermost first
	functions   map[uint64]string   // function id -> name
}

type profSample struct {
	locations []uint64 // leaf first
	values    []int64
}

// pbField is one decoded protobuf field: a varint value or raw bytes.
type pbField struct {
	num   int
	wire  int
	u     uint64
	bytes []byte
}

var errProto = errors.New("malformed profile.proto")

// pbFields splits a protobuf message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0: // varint
			f.u, n = uvarint(b)
			if n <= 0 {
				return nil, errProto
			}
			b = b[n:]
		case 1: // fixed64
			if len(b) < 8 {
				return nil, errProto
			}
			b = b[8:]
		case 2: // length-delimited
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errProto
			}
			f.bytes = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5: // fixed32
			if len(b) < 4 {
				return nil, errProto
			}
			b = b[4:]
		default:
			return nil, errProto
		}
		out = append(out, f)
	}
	return out, nil
}

// uvarint decodes a base-128 varint, returning the value and its length
// (0 or less on malformed input).
func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, -1
}

// repeatedU64 appends a repeated integer field's values, packed or not.
func repeatedU64(dst []uint64, f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.u), nil
	}
	if f.wire != 2 {
		return nil, errProto
	}
	for b := f.bytes; len(b) > 0; {
		v, n := uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst, nil
}

// parseProfile decodes a gzipped or raw profile.proto.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	top, err := pbFields(data)
	if err != nil {
		return nil, err
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]string{}}
	var strs []string
	var typeIdx []uint64
	funcName := map[uint64]uint64{} // function id -> string index
	for _, f := range top {
		switch f.num {
		case 1: // sample_type
			sub, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			for _, s := range sub {
				if s.num == 1 {
					typeIdx = append(typeIdx, s.u)
				}
			}
		case 2: // sample
			sub, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var s profSample
			for _, sf := range sub {
				switch sf.num {
				case 1:
					if s.locations, err = repeatedU64(s.locations, sf); err != nil {
						return nil, err
					}
				case 2:
					var vs []uint64
					if vs, err = repeatedU64(nil, sf); err != nil {
						return nil, err
					}
					for _, v := range vs {
						s.values = append(s.values, int64(v))
					}
				}
			}
			p.samples = append(p.samples, s)
		case 4: // location
			sub, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, lf := range sub {
				switch lf.num {
				case 1:
					id = lf.u
				case 4: // line
					line, err := pbFields(lf.bytes)
					if err != nil {
						return nil, err
					}
					for _, l := range line {
						if l.num == 1 {
							fns = append(fns, l.u)
						}
					}
				}
			}
			p.locations[id] = fns
		case 5: // function
			sub, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, ff := range sub {
				switch ff.num {
				case 1:
					id = ff.u
				case 2:
					name = ff.u
				}
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(f.bytes))
		}
	}
	str := func(i uint64) (string, error) {
		if i >= uint64(len(strs)) {
			return "", errProto
		}
		return strs[i], nil
	}
	for _, i := range typeIdx {
		s, err := str(i)
		if err != nil {
			return nil, err
		}
		p.sampleTypes = append(p.sampleTypes, s)
	}
	for id, i := range funcName {
		if p.functions[id], err = str(i); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// stack returns a sample's function names, innermost first (inlined
// callees come before the function they were inlined into).
func (p *profile) stack(s profSample) []string {
	var out []string
	for _, loc := range s.locations {
		for _, fn := range p.locations[loc] {
			out = append(out, p.functions[fn])
		}
	}
	return out
}

const (
	modulePath   = "github.com/payloadpark/payloadpark/"
	internalPath = modulePath + "internal/"
)

// gcFrames are name prefixes that mark a sample as garbage-collector
// work wherever they sit in its stack, assists included.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart", "runtime.gcMarkDone",
	"runtime.gcMarkTermination", "runtime.markroot", "runtime.sweepone",
}

// foldRow names the CPU row a sample folds onto: the innermost frame in
// one of the module's packages (so runtime helpers such as duffcopy,
// memmove and mallocgc count against their caller), unless the sample is
// GC work; samples with no module frame are the rest of the runtime.
func foldRow(stack []string) string {
	for _, fn := range stack {
		for _, gc := range gcFrames {
			if strings.HasPrefix(fn, gc) {
				return "runtime_gc"
			}
		}
	}
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, internalPath); ok {
			pkg := rest
			if i := strings.IndexAny(pkg, "./"); i >= 0 {
				pkg = pkg[:i]
			}
			for _, row := range cpuRows {
				if row == pkg {
					return row
				}
			}
			return "other"
		}
		if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, modulePath+"perfbench.") {
			return "bench" // the benchmark's own timing delegates
		}
		if strings.HasPrefix(fn, modulePath) {
			return "other"
		}
	}
	return "runtime_other"
}

// cpuShares folds the profile's CPU time onto cpuRows; shares sum to 1.
func cpuShares(p *profile) (map[string]float64, error) {
	vi := -1
	for i, t := range p.sampleTypes {
		if t == "cpu" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, errors.New("profile has no cpu sample type")
	}
	out := map[string]float64{}
	for _, row := range cpuRows {
		out[row] = 0
	}
	var total float64
	for _, s := range p.samples {
		if vi >= len(s.values) {
			return nil, errProto
		}
		v := float64(s.values[vi])
		out[foldRow(p.stack(s))] += v
		total += v
	}
	if total == 0 {
		return nil, errors.New("profile holds no CPU samples")
	}
	for k := range out {
		out[k] /= total
	}
	return out, nil
}
