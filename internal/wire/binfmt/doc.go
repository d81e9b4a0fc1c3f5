// Package binfmt defines the fixed-layout binary encodings for the three
// hot message types that dominate the system's wire traffic: measurement
// batches (monitoring agents → management server), row segments (column
// ships between learning agents), and CPD deltas (fitted parameters back to
// the server).
//
// Why not gob: framing each message as an independent gob stream, so
// frames decode in isolation, means every frame re-ships gob's full type
// metadata — 100–350 bytes that dwarf the actual payload at
// the batch sizes and delta cadences this system runs at. A fixed layout
// ships only data: 8 bytes per measurement in the common cyclic-monitoring
// case, 8 bytes per row value in a segment, and raw IEEE-754 parameters per
// CPD.
//
// Every payload starts with a type byte and a version byte, so one
// connection can interleave message kinds and future layout revisions are
// rejected rather than misparsed. All integers are big-endian; floats are
// raw IEEE-754 bits, making discrete values bit-identical and continuous
// values exact (not merely within the repo's 1e-9 tolerance) across a
// round trip.
//
// Decoding is hardened for hostile input: every failure returns an error
// wrapping ErrMalformed, decoding never panics, and declared element counts
// are validated against the remaining payload length before any allocation,
// so a corrupt count cannot trigger an allocation bomb. Decoders reuse the
// destination struct's backing arrays, so a long-lived connection decodes
// with zero steady-state allocations.
//
// The encodings are the only payloads the CRC'd wire frame carries (see
// package wire). encoding/gob survives only as the differential oracle in
// this package's tests and as the offline comparator of the wire
// benchmark.
package binfmt
