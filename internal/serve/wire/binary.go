package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"fourbit/internal/packet"
	"fourbit/internal/sim"
)

// The binary batch format. A stream is a sequence of length-prefixed
// frames; each frame carries one batch of fixed-layout little-endian event
// records, so a decoder needs no per-event framing decisions and no
// per-event allocations:
//
//	frame := uvarint(len(body)) body
//	body  := version(u8=1) uvarint(count) count×record
//	record:
//	  off  0  kind    u8   1=beacon 2=tx 3=rx 4=age 5=poison
//	  off  1  flags   u8   bit0=white (beacon/rx), bit1=acked (tx); rest 0
//	  off  2  nlinks  u8   beacon footer entries (0..15); 0 elsewhere
//	  off  3  lqi     u8   beacon/rx; 0 elsewhere
//	  off  4  src     u16  beacon/rx source, tx destination; 0 elsewhere
//	  off  6  seq     u16  beacon; 0 elsewhere
//	  off  8  at      u64  event time, ns (≤ MaxInt64)
//	  off 16  aux     u64  beacon/rx: float64 bits of snr; age: silence ns
//	  off 24  nlinks × { addr u16, q u8 }
//
// Decode is strict in both directions: every field a kind does not use
// must be zero, every field it does use is range-checked exactly as the
// JSONL decoder checks it, and a frame must consume its declared length to
// the byte. That makes encode∘decode the identity and means a stream
// accepted in binary form is expressible — event for event, bit for bit —
// as a JSONL stream, which is what the cross-format differential
// certification in chaostest leans on.

// ContentType negotiates the binary batch encoding on the ingest route;
// requests without it are read as JSONL.
const ContentType = "application/x-fourbit-batch"

// BatchVersion is the format generation this package encodes and decodes.
const BatchVersion = 1

// DefaultMaxBatchBytes bounds one frame body unless the reader overrides
// it — the binary analogue of the JSONL path's MaxLineBytes.
const DefaultMaxBatchBytes = 1 << 20

const (
	recordBaseLen = 24
	linkEntryLen  = 3
	// MaxEventLen is the largest possible single record: the base layout
	// plus a full 15-entry beacon footer.
	MaxEventLen = recordBaseLen + packet.MaxLinkEntries*linkEntryLen
)

// Record kind bytes.
const (
	kindBeacon = 1
	kindTx     = 2
	kindRx     = 3
	kindAge    = 4
	kindPoison = 5
)

// Record flag bits.
const (
	flagWhite = 1 << 0
	flagAcked = 1 << 1
)

// Typed batch decode errors: every malformed frame maps onto exactly one.
var (
	// ErrFrame: the batch framing is wrong — truncated frame or varint,
	// body over budget, declared count inconsistent with the body length.
	ErrFrame = errors.New("wire: malformed batch frame")
	// ErrFrameVersion: the frame's version byte names a format generation
	// this build does not speak.
	ErrFrameVersion = errors.New("wire: unsupported batch version")
	// ErrRecord: one event record carries an out-of-range or misused field.
	ErrRecord = errors.New("wire: invalid event record")
)

// kindByte maps an Event.Ev string onto its record kind byte.
func kindByte(ev string) (byte, error) {
	switch ev {
	case EvBeacon:
		return kindBeacon, nil
	case EvTx:
		return kindTx, nil
	case EvRx:
		return kindRx, nil
	case EvAge:
		return kindAge, nil
	case EvPoison:
		return kindPoison, nil
	}
	return 0, fmt.Errorf("%w: unknown kind %q", ErrRecord, ev)
}

// evString maps a record kind byte back onto the shared Ev constant, so
// decoded events carry the same interned strings the JSONL path yields.
func evString(kind byte) string {
	switch kind {
	case kindBeacon:
		return EvBeacon
	case kindTx:
		return EvTx
	case kindRx:
		return EvRx
	case kindAge:
		return EvAge
	default:
		return EvPoison
	}
}

// EncodedLen returns ev's record size in bytes.
func EncodedLen(ev *Event) int { return recordBaseLen + len(ev.Links)*linkEntryLen }

// CheckEvent reports whether ev is encodable: the validation AppendEvent
// applies before writing a record, refusing (ErrRecord) every event the
// JSONL decoder would refuse. A JSONL producer calls it directly so both
// formats refuse alike without encoding a record.
func CheckEvent(ev *Event) error {
	_, err := checkEvent(ev)
	return err
}

// checkEvent is CheckEvent returning the record kind byte on success.
func checkEvent(ev *Event) (byte, error) {
	kind, err := kindByte(ev.Ev)
	if err != nil {
		return 0, err
	}
	if ev.At < 0 {
		return 0, fmt.Errorf("%w: %s.at negative", ErrRecord, ev.Ev)
	}
	if kind == kindBeacon && len(ev.Links) > packet.MaxLinkEntries {
		return 0, fmt.Errorf("%w: beacon has %d footer entries, max %d", ErrRecord, len(ev.Links), packet.MaxLinkEntries)
	}
	switch kind {
	case kindBeacon, kindTx, kindRx:
		if ev.Src >= packet.None {
			return 0, fmt.Errorf("%w: %s address %d is not unicast", ErrRecord, ev.Ev, ev.Src)
		}
	case kindAge:
		if ev.Silence <= 0 {
			return 0, fmt.Errorf("%w: age.silence missing or non-positive", ErrRecord)
		}
	}
	if (kind == kindBeacon || kind == kindRx) && (math.IsNaN(ev.SNR) || math.IsInf(ev.SNR, 0)) {
		return 0, fmt.Errorf("%w: %s.snr is not finite", ErrRecord, ev.Ev)
	}
	return kind, nil
}

// AppendEvent appends ev's record to dst. Events that the JSONL decoder
// would refuse are refused here too (CheckEvent), so no encoder can mint a
// stream the strict decoders reject.
func AppendEvent(dst []byte, ev *Event) ([]byte, error) {
	kind, err := checkEvent(ev)
	if err != nil {
		return dst, err
	}
	var flags, nlinks, lqi byte
	var src, seq uint16
	var aux uint64
	switch kind {
	case kindBeacon:
		if ev.White {
			flags = flagWhite
		}
		nlinks, lqi = byte(len(ev.Links)), ev.LQI
		src, seq, aux = uint16(ev.Src), ev.Seq, math.Float64bits(ev.SNR)
	case kindTx:
		if ev.Acked {
			flags = flagAcked
		}
		src = uint16(ev.Src)
	case kindRx:
		if ev.White {
			flags = flagWhite
		}
		lqi, src, aux = ev.LQI, uint16(ev.Src), math.Float64bits(ev.SNR)
	case kindAge:
		aux = uint64(ev.Silence)
	}
	n := len(dst)
	dst = append(dst, make([]byte, recordBaseLen+int(nlinks)*linkEntryLen)...)
	rec := dst[n:]
	rec[0], rec[1], rec[2], rec[3] = kind, flags, nlinks, lqi
	binary.LittleEndian.PutUint16(rec[4:], src)
	binary.LittleEndian.PutUint16(rec[6:], seq)
	binary.LittleEndian.PutUint64(rec[8:], uint64(ev.At))
	binary.LittleEndian.PutUint64(rec[16:], aux)
	for i, l := range ev.Links {
		o := recordBaseLen + i*linkEntryLen
		binary.LittleEndian.PutUint16(rec[o:], uint16(l.Addr))
		rec[o+2] = l.InQuality
	}
	return dst, nil
}

// AppendBatch appends one complete frame — length prefix, version, count,
// records — for evs onto dst.
func AppendBatch(dst []byte, evs []Event) ([]byte, error) {
	var records []byte
	var err error
	for i := range evs {
		if records, err = AppendEvent(records, &evs[i]); err != nil {
			return dst, fmt.Errorf("event %d: %w", i, err)
		}
	}
	return AppendFrame(dst, records, len(evs)), nil
}

// AppendFrame appends one complete frame for count pre-encoded records
// (AppendEvent output, concatenated) onto dst — the steady-state framer
// behind the batching client and the converter, which accumulate records
// incrementally and must be able to re-frame a suffix after a partial
// (backpressured) acceptance.
func AppendFrame(dst []byte, records []byte, count int) []byte {
	var cnt [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(cnt[:], uint64(count))
	dst = binary.AppendUvarint(dst, uint64(1+n+len(records)))
	dst = append(dst, BatchVersion)
	dst = append(dst, cnt[:n]...)
	return append(dst, records...)
}

// BatchDecoder decodes frame bodies into events, reusing its scratch
// between calls: steady-state decode of a long stream allocates nothing.
// The returned events (and their Links) alias decoder scratch and are valid
// until the next Decode call. Not safe for concurrent use.
type BatchDecoder struct {
	// AllowPoison admits the chaos-only poison record, exactly like the
	// JSONL decoder's flag.
	AllowPoison bool

	events []Event
	links  []packet.LinkEntry
}

// DecodeBody decodes one frame body (the bytes after the length prefix).
// The error is nil or wraps exactly one of ErrFrame, ErrFrameVersion,
// ErrRecord; on error no events are returned — a frame is all-or-nothing,
// unlike JSONL's per-line skipping, because framing cannot be resynced
// past a corrupt record.
func (d *BatchDecoder) DecodeBody(body []byte) ([]Event, error) {
	if len(body) < 2 {
		return nil, fmt.Errorf("%w: body of %d bytes", ErrFrame, len(body))
	}
	if body[0] != BatchVersion {
		return nil, fmt.Errorf("%w: version %d, this build speaks %d", ErrFrameVersion, body[0], BatchVersion)
	}
	count64, n := binary.Uvarint(body[1:])
	if n <= 0 {
		return nil, fmt.Errorf("%w: bad event count varint", ErrFrame)
	}
	recs := body[1+n:]
	if count64 > uint64(len(recs)/recordBaseLen) {
		return nil, fmt.Errorf("%w: %d events declared, %d bytes of records", ErrFrame, count64, len(recs))
	}
	count := int(count64)

	// First pass: walk the record sizes so the link scratch can be grown
	// once up front — events alias subslices of it, so it must not move
	// while records decode.
	totalLinks, off := 0, 0
	for i := 0; i < count; i++ {
		if off+recordBaseLen > len(recs) {
			return nil, fmt.Errorf("%w: record %d truncated", ErrFrame, i)
		}
		totalLinks += int(recs[off+2])
		off += recordBaseLen + int(recs[off+2])*linkEntryLen
	}
	if off != len(recs) {
		return nil, fmt.Errorf("%w: %d record bytes declared, %d consumed", ErrFrame, len(recs), off)
	}
	if cap(d.events) < count {
		d.events = make([]Event, 0, count+count/2)
	}
	if cap(d.links) < totalLinks {
		d.links = make([]packet.LinkEntry, 0, totalLinks+totalLinks/2)
	}
	d.events, d.links = d.events[:count], d.links[:0]

	off = 0
	for i := 0; i < count; i++ {
		n, err := d.decodeRecord(recs[off:], &d.events[i], i)
		if err != nil {
			return nil, err
		}
		off += n
	}
	return d.events, nil
}

// decodeRecord decodes one record (length pre-validated) into ev.
func (d *BatchDecoder) decodeRecord(rec []byte, ev *Event, i int) (int, error) {
	kind, flags, nlinks, lqi := rec[0], rec[1], rec[2], rec[3]
	src := binary.LittleEndian.Uint16(rec[4:])
	seq := binary.LittleEndian.Uint16(rec[6:])
	at := binary.LittleEndian.Uint64(rec[8:])
	aux := binary.LittleEndian.Uint64(rec[16:])
	size := recordBaseLen + int(nlinks)*linkEntryLen

	recErr := func(format string, args ...any) (int, error) {
		return 0, fmt.Errorf("%w: record %d %s", ErrRecord, i, fmt.Sprintf(format, args...))
	}
	if kind < kindBeacon || kind > kindPoison {
		return recErr("has unknown kind %d", kind)
	}
	if kind == kindPoison && !d.AllowPoison {
		return recErr("is poison (not allowed here)")
	}
	if at > math.MaxInt64 {
		return recErr("time overflows the simulated clock")
	}
	var allowedFlags byte
	switch kind {
	case kindBeacon, kindRx:
		allowedFlags = flagWhite
	case kindTx:
		allowedFlags = flagAcked
	}
	if flags&^allowedFlags != 0 {
		return recErr("sets reserved flag bits %#x", flags&^allowedFlags)
	}
	if nlinks != 0 && kind != kindBeacon {
		return recErr("is not a beacon but carries %d footer entries", nlinks)
	}
	if int(nlinks) > packet.MaxLinkEntries {
		return recErr("has %d footer entries, max %d", nlinks, packet.MaxLinkEntries)
	}
	if lqi != 0 && kind != kindBeacon && kind != kindRx {
		return recErr("carries an lqi but kind %d has none", kind)
	}
	if seq != 0 && kind != kindBeacon {
		return recErr("carries a seq but kind %d has none", kind)
	}
	switch kind {
	case kindBeacon, kindTx, kindRx:
		if packet.Addr(src) >= packet.None {
			return recErr("address %d is not unicast", src)
		}
	default:
		if src != 0 {
			return recErr("carries an address but kind %d has none", kind)
		}
	}
	switch kind {
	case kindBeacon, kindRx:
		snr := math.Float64frombits(aux)
		if math.IsNaN(snr) || math.IsInf(snr, 0) {
			return recErr("snr is not finite")
		}
	case kindAge:
		if aux == 0 || aux > math.MaxInt64 {
			return recErr("silence missing or out of range")
		}
	default:
		if aux != 0 {
			return recErr("carries aux bits but kind %d has none", kind)
		}
	}

	*ev = Event{Ev: evString(kind), At: sim.Time(at)}
	switch kind {
	case kindBeacon:
		linkStart := len(d.links)
		for l := 0; l < int(nlinks); l++ {
			o := recordBaseLen + l*linkEntryLen
			addr := packet.Addr(binary.LittleEndian.Uint16(rec[o:]))
			if addr >= packet.None {
				return recErr("footer entry %d address %d is not unicast", l, addr)
			}
			d.links = append(d.links, packet.LinkEntry{Addr: addr, InQuality: rec[o+2]})
		}
		ev.Src, ev.Seq, ev.LQI, ev.White = packet.Addr(src), seq, lqi, flags&flagWhite != 0
		ev.SNR = math.Float64frombits(aux)
		ev.Links = d.links[linkStart:len(d.links):len(d.links)]
	case kindTx:
		ev.Src, ev.Acked = packet.Addr(src), flags&flagAcked != 0
	case kindRx:
		ev.Src, ev.LQI, ev.White = packet.Addr(src), lqi, flags&flagWhite != 0
		ev.SNR = math.Float64frombits(aux)
	case kindAge:
		ev.Silence = sim.Time(aux)
	}
	return size, nil
}

// DecodeFrame decodes one complete length-prefixed frame from the front of
// buf, returning the events and the bytes consumed — the slice-based
// sibling of FrameReader for callers holding a whole stream in memory.
func (d *BatchDecoder) DecodeFrame(buf []byte) ([]Event, int, error) {
	bodyLen, n := binary.Uvarint(buf)
	if n <= 0 {
		return nil, 0, fmt.Errorf("%w: bad length prefix", ErrFrame)
	}
	if bodyLen > uint64(len(buf)-n) {
		return nil, 0, fmt.Errorf("%w: %d-byte body declared, %d available", ErrFrame, bodyLen, len(buf)-n)
	}
	evs, err := d.DecodeBody(buf[n : n+int(bodyLen)])
	if err != nil {
		return nil, 0, err
	}
	return evs, n + int(bodyLen), nil
}

// FrameReader pulls length-prefixed batches off a byte stream (an HTTP
// request body, a converted feed file), reusing one frame buffer and one
// decoder across frames. Next returns io.EOF only at a clean frame
// boundary; a stream torn mid-frame is ErrFrame.
type FrameReader struct {
	// MaxBatchBytes bounds one frame body (default DefaultMaxBatchBytes).
	// A frame over budget is by construction not a batch: ErrFrame,
	// without collateral on frames already decoded.
	MaxBatchBytes int

	dec BatchDecoder
	br  *bufio.Reader
	buf []byte
}

// NewFrameReader builds a reader over r. allowPoison is threaded to the
// batch decoder; maxBatchBytes ≤ 0 selects the default.
func NewFrameReader(r io.Reader, maxBatchBytes int, allowPoison bool) *FrameReader {
	fr := &FrameReader{MaxBatchBytes: maxBatchBytes}
	fr.dec.AllowPoison = allowPoison
	fr.br = bufio.NewReaderSize(nil, 32*1024)
	fr.Reset(r)
	return fr
}

// Reset points the reader at a new stream, keeping all scratch — the
// pooled-reuse hook for servers.
func (fr *FrameReader) Reset(r io.Reader) { fr.br.Reset(r) }

// Next decodes the next batch. The returned events alias reader scratch
// and are valid until the following Next call.
func (fr *FrameReader) Next() ([]Event, error) {
	bodyLen, err := binary.ReadUvarint(fr.br)
	if err != nil {
		if err == io.EOF {
			return nil, io.EOF // clean boundary
		}
		if err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: stream torn inside a length prefix", ErrFrame)
		}
		return nil, err
	}
	max := fr.MaxBatchBytes
	if max <= 0 {
		max = DefaultMaxBatchBytes
	}
	if bodyLen > uint64(max) {
		return nil, fmt.Errorf("%w: %d-byte body exceeds the %d-byte batch budget", ErrFrame, bodyLen, max)
	}
	if cap(fr.buf) < int(bodyLen) {
		fr.buf = make([]byte, bodyLen)
	}
	fr.buf = fr.buf[:bodyLen]
	if _, err := io.ReadFull(fr.br, fr.buf); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: stream torn inside a frame body", ErrFrame)
		}
		return nil, err
	}
	return fr.dec.DecodeBody(fr.buf)
}
