package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// cpuProfile is the part of a runtime/pprof CPU profile the ledger reads:
// each sample's call stack, leaf first with inlined frames expanded, and
// the CPU time it stands for.
type cpuProfile struct {
	samples []cpuSample
}

type cpuSample struct {
	stack []frame
	cpuNS int64
}

// frame is one function on a stack and the source file it was compiled
// from.
type frame struct {
	name, file string
}

// Field numbers of profile.proto (github.com/google/pprof/proto).
const (
	profSampleType  = 1
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4

	lineFunctionID = 1

	functionID       = 1
	functionName     = 2
	functionFilename = 4

	valueTypeType = 1
	valueTypeUnit = 2
)

// parseProfile decodes a (possibly gzip-compressed) profile.proto message.
func parseProfile(data []byte) (*cpuProfile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		strs        []string
		sampleTypes [][2]int64 // (type, unit) string indexes
		samples     []rawSample
		locLines    = map[uint64][]uint64{} // location id → function ids, leaf first
		funcs       = map[uint64][2]int64{} // function id → name and file string indexes
	)
	err := eachField(data, func(num int, v uint64, b []byte) error {
		switch num {
		case profStringTable:
			strs = append(strs, string(b))
		case profSampleType:
			var vt [2]int64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case valueTypeType:
					vt[0] = int64(v)
				case valueTypeUnit:
					vt[1] = int64(v)
				}
				return nil
			})
			sampleTypes = append(sampleTypes, vt)
			return err
		case profSample:
			var s rawSample
			err := eachField(b, func(n int, v uint64, packed []byte) error {
				switch n {
				case sampleLocationID:
					return appendVarints(&s.locs, v, packed)
				case sampleValue:
					var u []uint64
					if err := appendVarints(&u, v, packed); err != nil {
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
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(b, func(n int, v uint64, sub []byte) error {
				switch n {
				case locationID:
					id = v
				case locationLine:
					return eachField(sub, func(n int, v uint64, _ []byte) error {
						if n == lineFunctionID {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case profFunction:
			var id uint64
			var f [2]int64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case functionID:
					id = v
				case functionName:
					f[0] = int64(v)
				case functionFilename:
					f[1] = int64(v)
				}
				return nil
			})
			funcs[id] = f
			return err
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	// The CPU time is the "cpu"/"nanoseconds" value; Go writes it second,
	// after the sample count.
	cpuIdx := len(sampleTypes) - 1
	for i, vt := range sampleTypes {
		if str(vt[0]) == "cpu" && str(vt[1]) == "nanoseconds" {
			cpuIdx = i
		}
	}
	if cpuIdx < 0 {
		return nil, errors.New("profile has no sample types")
	}
	p := &cpuProfile{samples: make([]cpuSample, 0, len(samples))}
	for _, s := range samples {
		if cpuIdx >= len(s.values) {
			return nil, fmt.Errorf("sample has %d values, want > %d", len(s.values), cpuIdx)
		}
		cs := cpuSample{cpuNS: s.values[cpuIdx]}
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				f := funcs[fn]
				cs.stack = append(cs.stack, frame{name: str(f[0]), file: str(f[1])})
			}
		}
		p.samples = append(p.samples, cs)
	}
	return p, nil
}

// eachField walks one protobuf message, calling fn with each field's number
// and either its varint value (wire types 0, 1 and 5) or its bytes (wire
// type 2).
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field that arrived either as one
// unpacked value or as a packed run.
func appendVarints(dst *[]uint64, v uint64, packed []byte) error {
	if packed == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		packed = packed[n:]
	}
	return nil
}
