package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// cpuProfile is the part of a runtime/pprof CPU profile the layer
// attribution needs: each sample's stack as function names, innermost
// first, with inlined frames expanded.
type cpuProfile struct {
	stacks [][]string
	counts []int64
}

// parseCPUProfile decodes a gzipped profile.proto as written by
// runtime/pprof. Only the fields below are read:
//
//	Profile:  2 sample, 4 location, 5 function, 6 string_table
//	Sample:   1 location_id (packed or not), 2 value (packed or not)
//	Location: 1 id, 4 line
//	Line:     1 function_id
//	Function: 1 id, 2 name (string index)
func parseCPUProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id → function ids, innermost first
		fnName  = map[uint64]int64{}    // function id → string index
		strs    []string
	)
	err = eachField(raw, func(num int, _ int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s sample
			err := eachField(b, func(num int, wt int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wt, v, b)
				case 2:
					s.values = appendVarints(s.values, wt, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, _ int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(b, func(num int, _ int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(b, func(num int, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &cpuProfile{}
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		var st []string
		for _, l := range s.locs {
			for _, f := range locFns[l] {
				if i := fnName[f]; i >= 0 && int(i) < len(strs) {
					st = append(st, strs[i])
				}
			}
		}
		p.stacks = append(p.stacks, st)
		p.counts = append(p.counts, int64(s.values[0]))
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks the top-level fields of a protobuf message, handing
// varints in v and length-delimited payloads in b.
func eachField(buf []byte, fn func(num, wireType int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := uvarint(buf)
		if n == 0 {
			return errTruncated
		}
		buf = buf[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wt {
		case 0:
			v, n = uvarint(buf)
			if n == 0 {
				return errTruncated
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errTruncated
			}
			buf = buf[8:]
		case 2:
			l, n := uvarint(buf)
			if n == 0 || uint64(len(buf)-n) < l {
				return errTruncated
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errTruncated
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wt)
		}
		if err := fn(num, wt, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field in either encoding: one
// varint (wire type 0) or a packed run (wire type 2).
func appendVarints(dst []uint64, wt int, v uint64, b []byte) []uint64 {
	if wt == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// uvarint is binary.Uvarint with every malformed encoding reported as n == 0.
func uvarint(b []byte) (uint64, int) {
	x, n := binary.Uvarint(b)
	if n < 0 {
		return 0, 0
	}
	return x, n
}
