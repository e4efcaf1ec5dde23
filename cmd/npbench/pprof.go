package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

// profile is the part of a pprof profile (profile.proto) that CPU
// attribution needs: samples with their stacks, and the functions the
// stacks name. Mappings, labels and line numbers are skipped.
type profile struct {
	// sampleTypes holds each sample value's (type, unit), e.g.
	// ("cpu", "nanoseconds").
	sampleTypes [][2]string
	samples     []sample
	// locations maps a location id to the function names at that
	// address, innermost (inlined callee) first.
	locations map[uint64][]string
}

// sample is one profile sample: its stack, leaf first, and one value
// per sample type.
type sample struct {
	locs   []uint64
	values []int64
}

// valueIndex returns the index of the sample value of the given type,
// or -1.
func (p *profile) valueIndex(typ string) int {
	for i, st := range p.sampleTypes {
		if st[0] == typ {
			return i
		}
	}
	return -1
}

// stack returns the sample's function names, innermost first.
func (p *profile) stack(s sample) []string {
	var out []string
	for _, id := range s.locs {
		out = append(out, p.locations[id]...)
	}
	return out
}

// Field numbers from profile.proto.
const (
	fProfileSampleType  = 1
	fProfileSample      = 2
	fProfileLocation    = 4
	fProfileFunction    = 5
	fProfileStringTable = 6

	fValueTypeType = 1
	fValueTypeUnit = 2

	fSampleLocationID = 1
	fSampleValue      = 2

	fLocationID   = 1
	fLocationLine = 4

	fLineFunctionID = 1

	fFunctionID   = 1
	fFunctionName = 2
)

// Protobuf wire types.
const (
	wireVarint = 0
	wire64     = 1
	wireBytes  = 2
	wire32     = 5
)

// parseProfile decodes a pprof profile, gzip-compressed (as
// runtime/pprof writes it) or raw.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
	}

	// Strings come last in Go's encoding, so names are resolved after
	// the whole message is read.
	var (
		strs      []string
		types     [][2]uint64
		funcNames = map[uint64]uint64{} // function id → string index
		locFuncs  = map[uint64][]uint64{}
		p         = &profile{locations: map[uint64][]string{}}
	)
	d := pbuf{data}
	for !d.done() {
		field, wire, err := d.key()
		if err != nil {
			return nil, err
		}
		if wire != wireBytes {
			if err := d.skip(wire); err != nil {
				return nil, err
			}
			continue
		}
		msg, err := d.bytes()
		if err != nil {
			return nil, err
		}
		switch field {
		case fProfileSampleType:
			var vt [2]uint64
			err = fields(msg, func(f, w int, m *pbuf) error {
				if w != wireVarint || (f != fValueTypeType && f != fValueTypeUnit) {
					return m.skip(w)
				}
				v, err := m.varint()
				vt[f-1] = v
				return err
			})
			types = append(types, vt)
		case fProfileSample:
			var s sample
			err = fields(msg, func(f, w int, m *pbuf) error {
				switch f {
				case fSampleLocationID:
					return m.uints(w, func(v uint64) { s.locs = append(s.locs, v) })
				case fSampleValue:
					return m.uints(w, func(v uint64) { s.values = append(s.values, int64(v)) })
				}
				return m.skip(w)
			})
			p.samples = append(p.samples, s)
		case fProfileLocation:
			var id uint64
			var funcs []uint64
			err = fields(msg, func(f, w int, m *pbuf) error {
				switch {
				case f == fLocationID && w == wireVarint:
					v, err := m.varint()
					id = v
					return err
				case f == fLocationLine && w == wireBytes:
					line, err := m.bytes()
					if err != nil {
						return err
					}
					return fields(line, func(f, w int, m *pbuf) error {
						if f != fLineFunctionID || w != wireVarint {
							return m.skip(w)
						}
						v, err := m.varint()
						funcs = append(funcs, v)
						return err
					})
				}
				return m.skip(w)
			})
			locFuncs[id] = funcs
		case fProfileFunction:
			var id, name uint64
			err = fields(msg, func(f, w int, m *pbuf) error {
				if w != wireVarint || (f != fFunctionID && f != fFunctionName) {
					return m.skip(w)
				}
				v, err := m.varint()
				if f == fFunctionID {
					id = v
				} else {
					name = v
				}
				return err
			})
			funcNames[id] = name
		case fProfileStringTable:
			strs = append(strs, string(msg))
		}
		if err != nil {
			return nil, err
		}
	}

	str := func(i uint64) (string, error) {
		if i >= uint64(len(strs)) {
			return "", fmt.Errorf("pprof: string index %d out of range (%d strings)", i, len(strs))
		}
		return strs[i], nil
	}
	for _, t := range types {
		typ, err := str(t[0])
		if err != nil {
			return nil, err
		}
		unit, err := str(t[1])
		if err != nil {
			return nil, err
		}
		p.sampleTypes = append(p.sampleTypes, [2]string{typ, unit})
	}
	for id, funcs := range locFuncs {
		names := make([]string, 0, len(funcs))
		for _, f := range funcs {
			name, err := str(funcNames[f])
			if err != nil {
				return nil, err
			}
			names = append(names, name)
		}
		p.locations[id] = names
	}
	for _, s := range p.samples {
		if len(s.values) != len(p.sampleTypes) {
			return nil, fmt.Errorf("pprof: sample has %d values for %d sample types", len(s.values), len(p.sampleTypes))
		}
		for _, id := range s.locs {
			if _, ok := p.locations[id]; !ok {
				return nil, fmt.Errorf("pprof: sample names unknown location %d", id)
			}
		}
	}
	return p, nil
}

// pbuf is a cursor over protobuf wire-format bytes.
type pbuf struct{ b []byte }

var errTruncated = errors.New("pprof: truncated message")

func (d *pbuf) done() bool { return len(d.b) == 0 }

func (d *pbuf) varint() (uint64, error) {
	var v uint64
	for i := 0; i < 10 && i < len(d.b); i++ {
		c := d.b[i]
		v |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			d.b = d.b[i+1:]
			return v, nil
		}
	}
	return 0, errTruncated
}

func (d *pbuf) key() (field, wire int, err error) {
	k, err := d.varint()
	if err != nil {
		return 0, 0, err
	}
	return int(k >> 3), int(k & 7), nil
}

func (d *pbuf) bytes() ([]byte, error) {
	n, err := d.varint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(d.b)) {
		return nil, errTruncated
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out, nil
}

func (d *pbuf) skip(wire int) error {
	var n int
	switch wire {
	case wireVarint:
		_, err := d.varint()
		return err
	case wireBytes:
		_, err := d.bytes()
		return err
	case wire64:
		n = 8
	case wire32:
		n = 4
	default:
		return fmt.Errorf("pprof: unsupported wire type %d", wire)
	}
	if len(d.b) < n {
		return errTruncated
	}
	d.b = d.b[n:]
	return nil
}

// uints reads a repeated integer field in either encoding: one varint,
// or a packed run of varints.
func (d *pbuf) uints(wire int, add func(uint64)) error {
	switch wire {
	case wireVarint:
		v, err := d.varint()
		if err == nil {
			add(v)
		}
		return err
	case wireBytes:
		packed, err := d.bytes()
		if err != nil {
			return err
		}
		p := pbuf{packed}
		for !p.done() {
			v, err := p.varint()
			if err != nil {
				return err
			}
			add(v)
		}
		return nil
	}
	return fmt.Errorf("pprof: repeated integer with wire type %d", wire)
}

// fields calls fn for each field of an embedded message. fn must
// consume the field's value from m.
func fields(msg []byte, fn func(field, wire int, m *pbuf) error) error {
	m := pbuf{msg}
	for !m.done() {
		f, w, err := m.key()
		if err != nil {
			return err
		}
		if err := fn(f, w, &m); err != nil {
			return err
		}
	}
	return nil
}
