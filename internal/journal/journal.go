// Package journal is the durable store-and-forward layer of the monitoring
// fabric: a per-agent append-only queue that spills to disk, so a
// management-server outage costs latency instead of data.
//
// Producers Append binfmt-encoded payloads; each record gets a monotonic
// sequence number and is framed on disk as
//
//	magic u16 | seq u64 | len u32 | crc32 u32 | payload
//
// with the CRC computed over seq||payload (big-endian throughout). Delivery
// is at-least-once: transports Replay every unacknowledged record after a
// reconnect (ReplayAfter skips what the live connection already carried),
// the receiver dedups on (origin, seq) watermarks (see Dedup), and
// cumulative Acks release records. Acknowledgements are deliberately not
// persisted — after a crash every surviving record replays and the receiver's
// dedup window absorbs the duplicates, which keeps the commit path to one
// appended frame (plus an optional fsync).
//
// Because the file is append-only, a crash mid-append can only tear the final
// record: recovery scans from the start and truncates the file at the first
// frame that fails its magic, length bound, CRC, or sequence-monotonicity
// check. Earlier records are never lost or duplicated by recovery itself.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sort"
	"sync"
	"time"

	"kertbn/internal/obs"
)

func init() { obs.RegisterPrefix("journal", "internal/journal") }

// Store-and-forward accounting. Loss is never silent: shed records (the
// bounded-buffer policy dropping oldest) bump journal.shed_records and emit
// an obs data-loss event.
var (
	jAppends   = obs.C("journal.appends")
	jAcked     = obs.C("journal.acked_records")
	jReplays   = obs.C("journal.replayed_records")
	jShed      = obs.C("journal.shed_records")
	jTorn      = obs.C("journal.torn_tail_discards")
	jCompacts  = obs.C("journal.compactions")
	jRecovered = obs.C("journal.recovered_records")
)

const (
	recMagic  uint16 = 0x4A52 // "JR"
	recHeader        = 2 + 8 + 4 + 4
	// MaxRecord caps one record's payload, mirroring wire.DefaultMaxFrame:
	// anything a journal stores must have fit in a wire frame anyway.
	MaxRecord = 16 << 20
)

var (
	// ErrClosed is returned by operations on a closed journal.
	ErrClosed = errors.New("journal: closed")
	// ErrFull is returned by Append under PolicyBlock when the pending bound
	// is still exhausted after BlockTimeout.
	ErrFull = errors.New("journal: pending buffer full")
	// ErrTooLarge is returned by Append for payloads over MaxRecord.
	ErrTooLarge = errors.New("journal: record exceeds size cap")
)

// Policy selects what Append does when the pending bound is reached.
type Policy int

const (
	// PolicyBlock makes Append wait up to BlockTimeout for acknowledgements
	// to free space, then fail with ErrFull. Nothing is lost; the producer
	// feels the backpressure.
	PolicyBlock Policy = iota
	// PolicyShed drops the oldest pending record to make room. The shed is
	// counted and journaled as a data-loss event — bounded memory bought with
	// explicit, observable loss.
	PolicyShed
)

// Options configures a journal. The zero value is a memory-only journal with
// default bounds.
type Options struct {
	// Path is the backing file. Empty means memory-only: same ordering, ack,
	// and backpressure semantics, but nothing survives a process crash.
	Path string
	// MaxPending bounds unacknowledged records (default 4096). Reaching it
	// triggers Policy.
	MaxPending int
	// MemRecords is the spill threshold: at most this many pending payloads
	// stay resident in memory (default 256); older pending records keep only
	// their file offset and are re-read on Replay. Ignored for memory-only
	// journals, which must keep every payload resident.
	MemRecords int
	// Policy selects block vs shed-oldest at the MaxPending bound.
	Policy Policy
	// BlockTimeout bounds PolicyBlock waits (default 2s).
	BlockTimeout time.Duration
	// SyncOnAppend fsyncs after every appended record. Off by default: the
	// crash window is then the OS page cache, which the torn-tail recovery
	// handles either way.
	SyncOnAppend bool
	// CompactBytes triggers a file rewrite once at least this many bytes of
	// acknowledged records precede the pending set (default 1 MiB).
	CompactBytes int64
}

func (o Options) withDefaults() Options {
	if o.MaxPending <= 0 {
		o.MaxPending = 4096
	}
	if o.MemRecords <= 0 {
		o.MemRecords = 256
	}
	if o.BlockTimeout <= 0 {
		o.BlockTimeout = 2 * time.Second
	}
	if o.CompactBytes <= 0 {
		o.CompactBytes = 1 << 20
	}
	return o
}

// record is one pending (unacknowledged) entry. payload is nil when spilled
// to disk only; off is -1 for memory-only journals.
type record struct {
	seq      uint64
	payload  []byte
	off      int64
	size     int64
	attempts int
}

// Journal is a sequence-numbered append-only queue with optional disk
// spill. Safe for concurrent use.
type Journal struct {
	opts Options

	mu       sync.Mutex
	cond     *sync.Cond
	f        *os.File
	pend     []record
	memStart int // pend[memStart:] have resident payloads (suffix invariant)
	lastSeq  uint64
	acked    uint64
	writeOff int64
	// ackedBytes counts file bytes belonging to acknowledged (or shed)
	// records — the compaction trigger.
	ackedBytes int64
	shed       int64
	recovered  int
	tornBytes  int64
	encBuf     []byte
	closed     bool
}

// Open creates or recovers a journal. With a Path, every record already in
// the file is recovered as pending (acks are not persisted; downstream dedup
// suppresses the re-deliveries) and a torn tail is truncated away.
func Open(opts Options) (*Journal, error) {
	j := &Journal{opts: opts.withDefaults()}
	j.cond = sync.NewCond(&j.mu)
	if j.opts.Path == "" {
		return j, nil
	}
	// A leftover .tmp means a crash mid-compaction; the rename never
	// happened, so the main file is still authoritative.
	os.Remove(j.opts.Path + ".tmp")
	f, err := os.OpenFile(j.opts.Path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: open: %w", err)
	}
	j.f = f
	if err := j.recover(); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

var crcTab = crc32.MakeTable(crc32.IEEE)

func recCRC(seq uint64, payload []byte) uint32 {
	var sb [8]byte
	binary.BigEndian.PutUint64(sb[:], seq)
	c := crc32.Update(0, crcTab, sb[:])
	return crc32.Update(c, crcTab, payload)
}

// recover scans the backing file, indexing every valid record and truncating
// the file at the first violation (torn tail from a crash mid-append, or a
// crash mid-compaction's partially-written suffix).
func (j *Journal) recover() error {
	st, err := j.f.Stat()
	if err != nil {
		return fmt.Errorf("journal: stat: %w", err)
	}
	size := st.Size()
	var off int64
	var hdr [recHeader]byte
	for off < size {
		if size-off < recHeader {
			break
		}
		if _, err := j.f.ReadAt(hdr[:], off); err != nil {
			return fmt.Errorf("journal: recover read: %w", err)
		}
		if binary.BigEndian.Uint16(hdr[0:2]) != recMagic {
			break
		}
		seq := binary.BigEndian.Uint64(hdr[2:10])
		plen := int64(binary.BigEndian.Uint32(hdr[10:14]))
		if plen > MaxRecord || size-off-recHeader < plen {
			break
		}
		payload := make([]byte, plen)
		if _, err := j.f.ReadAt(payload, off+recHeader); err != nil {
			return fmt.Errorf("journal: recover read: %w", err)
		}
		if recCRC(seq, payload) != binary.BigEndian.Uint32(hdr[14:18]) {
			break
		}
		// Sequences must be strictly ascending. (Not necessarily contiguous:
		// compaction drops acked records, shed leaves gaps.)
		if len(j.pend) > 0 && seq <= j.lastSeq {
			break
		}
		j.pend = append(j.pend, record{seq: seq, payload: payload, off: off, size: recHeader + plen})
		j.lastSeq = seq
		off += recHeader + plen
	}
	if off < size {
		if err := j.f.Truncate(off); err != nil {
			return fmt.Errorf("journal: truncate torn tail: %w", err)
		}
		j.tornBytes = size - off
		jTorn.Inc()
	}
	j.writeOff = off
	j.recovered = len(j.pend)
	if n := len(j.pend); n > 0 {
		j.acked = j.pend[0].seq - 1
		jRecovered.Add(int64(n))
	}
	// Enforce the spill threshold on the recovered set: only the newest
	// MemRecords payloads stay resident.
	if j.memStart = len(j.pend) - j.opts.MemRecords; j.memStart < 0 {
		j.memStart = 0
	}
	for i := 0; i < j.memStart; i++ {
		j.pend[i].payload = nil
	}
	return nil
}

// Append persists one payload and returns its sequence number. The payload
// is copied; callers may reuse the buffer. At the MaxPending bound the
// configured Policy applies.
func (j *Journal) Append(payload []byte) (uint64, error) {
	if int64(len(payload)) > MaxRecord {
		return 0, ErrTooLarge
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return 0, ErrClosed
	}
	if len(j.pend) >= j.opts.MaxPending {
		switch j.opts.Policy {
		case PolicyShed:
			j.shedOldestLocked()
		default:
			deadline := time.Now().Add(j.opts.BlockTimeout)
			wake := time.AfterFunc(j.opts.BlockTimeout, j.cond.Broadcast)
			for len(j.pend) >= j.opts.MaxPending && !j.closed && time.Now().Before(deadline) {
				j.cond.Wait()
			}
			wake.Stop()
			if j.closed {
				return 0, ErrClosed
			}
			if len(j.pend) >= j.opts.MaxPending {
				return 0, ErrFull
			}
		}
	}
	seq := j.lastSeq + 1
	rec := record{seq: seq, off: -1, size: recHeader + int64(len(payload))}
	if j.f != nil {
		buf := j.encBuf[:0]
		buf = binary.BigEndian.AppendUint16(buf, recMagic)
		buf = binary.BigEndian.AppendUint64(buf, seq)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
		buf = binary.BigEndian.AppendUint32(buf, recCRC(seq, payload))
		buf = append(buf, payload...)
		j.encBuf = buf
		if _, err := j.f.WriteAt(buf, j.writeOff); err != nil {
			return 0, fmt.Errorf("journal: append: %w", err)
		}
		if j.opts.SyncOnAppend {
			if err := j.f.Sync(); err != nil {
				return 0, fmt.Errorf("journal: sync: %w", err)
			}
		}
		rec.off = j.writeOff
		j.writeOff += rec.size
	}
	rec.payload = append([]byte(nil), payload...)
	j.pend = append(j.pend, rec)
	j.lastSeq = seq
	jAppends.Inc()
	// Spill: keep at most MemRecords payloads resident (disk journals only —
	// a memory-only journal has nowhere to spill to).
	if j.f != nil {
		for len(j.pend)-j.memStart > j.opts.MemRecords {
			j.pend[j.memStart].payload = nil
			j.memStart++
		}
	}
	return seq, nil
}

// shedOldestLocked drops pend[0] under PolicyShed, counting the loss.
func (j *Journal) shedOldestLocked() {
	rec := j.pend[0]
	j.pend = j.pend[1:]
	if j.memStart > 0 {
		j.memStart--
	}
	if rec.off >= 0 {
		// The bytes stay in the file until compaction; recovery may
		// resurrect the record, which dedup downstream absorbs.
		j.ackedBytes += rec.size
	}
	j.shed++
	jShed.Inc()
	obs.J().Record(obs.Event{
		Type:   obs.EventDataLoss,
		Rows:   1,
		Detail: fmt.Sprintf("journal shed oldest pending record seq=%d (PolicyShed at %d pending)", rec.seq, j.opts.MaxPending),
	})
}

// Ack releases every pending record with sequence ≤ seq (acknowledgements
// are cumulative). It never fails; file maintenance errors are retried at
// the next trigger.
func (j *Journal) Ack(seq uint64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed || seq <= j.acked {
		if seq > j.acked {
			j.acked = seq
		}
		return
	}
	n := 0
	for n < len(j.pend) && j.pend[n].seq <= seq {
		if j.pend[n].off >= 0 {
			j.ackedBytes += j.pend[n].size
		}
		n++
	}
	j.acked = seq
	if n == 0 {
		return
	}
	j.pend = append(j.pend[:0], j.pend[n:]...)
	if j.memStart -= n; j.memStart < 0 {
		j.memStart = 0
	}
	jAcked.Add(int64(n))
	j.cond.Broadcast()
	if j.f == nil {
		return
	}
	if len(j.pend) == 0 && j.writeOff > 0 {
		// Fully drained: reset the file instead of compacting.
		if err := j.f.Truncate(0); err == nil {
			j.writeOff, j.ackedBytes = 0, 0
		}
		return
	}
	if j.ackedBytes >= j.opts.CompactBytes {
		j.compactLocked()
	}
}

// compactLocked rewrites the file with only the pending records
// (write-tmp, fsync, atomic rename). Best-effort: on failure the old file
// stays authoritative and the trigger fires again later.
func (j *Journal) compactLocked() {
	tmpPath := j.opts.Path + ".tmp"
	tmp, err := os.Create(tmpPath)
	if err != nil {
		return
	}
	var off int64
	offs := make([]int64, len(j.pend))
	ok := true
	for i := range j.pend {
		payload, err := j.payloadLocked(i)
		if err != nil {
			ok = false
			break
		}
		buf := j.encBuf[:0]
		buf = binary.BigEndian.AppendUint16(buf, recMagic)
		buf = binary.BigEndian.AppendUint64(buf, j.pend[i].seq)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
		buf = binary.BigEndian.AppendUint32(buf, recCRC(j.pend[i].seq, payload))
		buf = append(buf, payload...)
		j.encBuf = buf
		if _, err := tmp.Write(buf); err != nil {
			ok = false
			break
		}
		offs[i] = off
		off += int64(len(buf))
	}
	if !ok || tmp.Sync() != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpPath)
		return
	}
	if err := os.Rename(tmpPath, j.opts.Path); err != nil {
		os.Remove(tmpPath)
		return
	}
	f, err := os.OpenFile(j.opts.Path, os.O_RDWR, 0o644)
	if err != nil {
		// The renamed file is valid on disk; without a handle we cannot
		// continue appending. Mark the journal broken by closing it.
		j.f.Close()
		j.f = nil
		return
	}
	j.f.Close()
	j.f = f
	for i := range j.pend {
		j.pend[i].off = offs[i]
	}
	j.writeOff, j.ackedBytes = off, 0
	jCompacts.Inc()
}

// payloadLocked materializes pend[i]'s payload, re-reading (and re-checking)
// spilled records from disk.
func (j *Journal) payloadLocked(i int) ([]byte, error) {
	rec := &j.pend[i]
	if rec.payload != nil {
		return rec.payload, nil
	}
	if j.f == nil || rec.off < 0 {
		return nil, fmt.Errorf("journal: record seq=%d has no payload source", rec.seq)
	}
	p := make([]byte, rec.size-recHeader)
	if _, err := j.f.ReadAt(p, rec.off+recHeader); err != nil {
		return nil, fmt.Errorf("journal: read spilled record seq=%d: %w", rec.seq, err)
	}
	var hdr [recHeader]byte
	if _, err := j.f.ReadAt(hdr[:], rec.off); err != nil {
		return nil, fmt.Errorf("journal: read spilled record seq=%d: %w", rec.seq, err)
	}
	if recCRC(rec.seq, p) != binary.BigEndian.Uint32(hdr[14:18]) {
		return nil, fmt.Errorf("journal: spilled record seq=%d failed CRC re-check", rec.seq)
	}
	return p, nil
}

// Replay invokes fn for every pending record in sequence order; it is
// ReplayAfter(0, fn).
func (j *Journal) Replay(fn func(seq uint64, payload []byte, attempts int) error) error {
	return j.ReplayAfter(0, fn)
}

// ReplayAfter invokes fn for every pending record with a sequence number
// above after, in sequence order — a transport's per-connection write
// cursor, so records already carried by the live connection are neither
// re-sent nor counted again. Records appended or acked while the sweep runs
// are seen as they are when the sweep reaches them. Payload slices are
// valid for the duration of the callback. A record enumerated for the
// second or later time counts as a replay (journal.replayed_records); fn's
// error aborts the sweep and is returned. The lock is taken once per
// record, never across fn, so a slow callback does not stall Append or Ack.
func (j *Journal) ReplayAfter(after uint64, fn func(seq uint64, payload []byte, attempts int) error) error {
	for {
		j.mu.Lock()
		if j.closed {
			j.mu.Unlock()
			return ErrClosed
		}
		// pend is sorted by seq.
		i := sort.Search(len(j.pend), func(i int) bool { return j.pend[i].seq > after })
		if i == len(j.pend) {
			j.mu.Unlock()
			return nil
		}
		p, err := j.payloadLocked(i)
		if err != nil {
			j.mu.Unlock()
			return err
		}
		rec := &j.pend[i]
		seq, attempts := rec.seq, rec.attempts
		if attempts > 0 {
			jReplays.Inc()
		}
		rec.attempts++
		j.mu.Unlock()
		if err := fn(seq, p, attempts); err != nil {
			return err
		}
		after = seq
	}
}

// Pending returns the unacknowledged record count.
func (j *Journal) Pending() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.pend)
}

// LastSeq returns the highest sequence number ever appended (0 = none).
func (j *Journal) LastSeq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.lastSeq
}

// AckedSeq returns the cumulative acknowledgement watermark.
func (j *Journal) AckedSeq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.acked
}

// Shed returns how many records this journal dropped under PolicyShed.
func (j *Journal) Shed() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.shed
}

// Recovered returns how many records Open recovered from the backing file.
func (j *Journal) Recovered() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.recovered
}

// TornBytes returns how many trailing bytes Open discarded as a torn tail.
func (j *Journal) TornBytes() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.tornBytes
}

// Sync flushes the backing file to stable storage.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if j.f == nil {
		return nil
	}
	return j.f.Sync()
}

// Close releases the backing file and wakes blocked appenders (they fail
// with ErrClosed). Pending records stay in the file for the next Open.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	j.cond.Broadcast()
	if j.f != nil {
		err := j.f.Close()
		j.f = nil
		return err
	}
	return nil
}
