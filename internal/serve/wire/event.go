// Package wire owns the estimation service's two ingest wire formats and
// nothing else: the line-oriented JSONL event encoding (one JSON object
// per line, strict decode with typed per-line errors) and the batched
// binary encoding (fixed little-endian event records under varint batch
// framing, negotiated via Content-Type: application/x-fourbit-batch).
// Both decoders reuse their scratch between calls, so long streams decode
// with zero steady-state allocations, and both certify the same contract:
// a stream ingested through either format drives an estimator through the
// identical call sequence, bit for bit.
package wire

import (
	"encoding/json"
	"errors"
	"fmt"

	"fourbit/internal/packet"
	"fourbit/internal/sim"
)

// Event kinds on the ingest wire. In JSONL form, one JSON object per line:
//
//	{"ev":"beacon","at":N,"src":N,"seq":N,"lqi":N,"white":B,"snr":F,"links":[{"addr":N,"q":N}]}
//	{"ev":"tx","at":N,"dest":N,"acked":B}
//	{"ev":"rx","at":N,"src":N,"lqi":N,"white":B,"snr":F}
//	{"ev":"age","at":N,"silence":N}
//
// at and silence are simulated-time nanoseconds. beacon carries the LE
// envelope fields the estimator's OnBeacon consumes; rx is an overheard
// non-beacon frame (OnOverhear); tx is the link layer's ack bit for one
// unicast (TxResult); age injects silence at the caller's cadence (Age).
const (
	EvBeacon = "beacon"
	EvTx     = "tx"
	EvRx     = "rx"
	EvAge    = "age"
	// EvPoison deliberately panics the instance worker. It decodes only
	// when the decoder's AllowPoison is set (the chaos harness); production
	// servers reject it as an unknown kind.
	EvPoison = "poison"
)

// Typed decode errors. Every malformed line maps onto exactly one of these;
// callers branch with errors.Is and per-line context rides in the wrapper.
var (
	// ErrEventSyntax: the line is not a JSON object of the wire shape.
	ErrEventSyntax = errors.New("serve: malformed event line")
	// ErrEventKind: the "ev" field is missing or names no known event.
	ErrEventKind = errors.New("serve: unknown event kind")
	// ErrEventField: a required field is missing or out of range.
	ErrEventField = errors.New("serve: invalid event field")
)

// Event is one decoded ingest event.
type Event struct {
	Ev      string
	At      sim.Time
	Src     packet.Addr // beacon/rx source, tx destination
	Seq     uint16
	LQI     uint8
	White   bool
	SNR     float64
	Acked   bool
	Silence sim.Time
	Links   []packet.LinkEntry // aliases decoder scratch; valid until next Decode
}

// wireLink is the footer entry wire form, pre-filled with -1 sentinels so
// missing fields are detectable without per-field pointers.
type wireLink struct {
	Addr int64 `json:"addr"`
	Q    int64 `json:"q"`
}

// UnmarshalJSON arms the -1 sentinels before decoding: encoding/json
// zero-initializes fresh slice elements, and 0 is a legal address, so the
// sentinel must be injected per element to make missing fields detectable.
func (l *wireLink) UnmarshalJSON(data []byte) error {
	type bare wireLink
	b := bare{Addr: -1, Q: -1}
	if err := json.Unmarshal(data, &b); err != nil {
		return err
	}
	*l = wireLink(b)
	return nil
}

// wireEvent is the reused decode target. Numeric fields start at -1 (none
// of them is legitimately negative on the wire), so "absent" and "present
// but wrong" both surface without allocating option pointers.
type wireEvent struct {
	Ev      string     `json:"ev"`
	At      int64      `json:"at"`
	Src     int64      `json:"src"`
	Dest    int64      `json:"dest"`
	Seq     int64      `json:"seq"`
	LQI     int64      `json:"lqi"`
	White   bool       `json:"white"`
	SNR     float64    `json:"snr"`
	Acked   *bool      `json:"acked"`
	Silence int64      `json:"silence"`
	Links   []wireLink `json:"links"`
}

// EventDecoder decodes JSONL ingest lines into Events, reusing its scratch
// between calls: a long stream decodes with zero steady-state allocations.
// Canonical lines (the exact grammar the recorder and clients emit) take a
// hand-rolled fast path; anything outside it — whitespace, escapes, unknown
// fields, exotic numbers — falls back to encoding/json, so acceptance and
// errors never depend on which path ran (FuzzDecodeEvent pins the two paths
// against each other). Not safe for concurrent use; the server keeps one
// per ingest request.
type EventDecoder struct {
	// AllowPoison admits the chaos-only poison event. Leave unset outside
	// fault-injection tests.
	AllowPoison bool

	// noFastPath forces every line through encoding/json — the reference
	// half of the fast-path differential fuzz property.
	noFastPath bool

	w     wireEvent
	acked bool // backing store for w.Acked on the fast path
	links []packet.LinkEntry
}

// reset re-arms the sentinels before each Unmarshal.
func (d *EventDecoder) reset() {
	d.w.Ev = ""
	d.w.At, d.w.Src, d.w.Dest, d.w.Seq, d.w.LQI, d.w.Silence = -1, -1, -1, -1, -1, -1
	d.w.White, d.w.SNR, d.w.Acked = false, 0, nil
	d.w.Links = d.w.Links[:0]
}

// fieldErr builds an ErrEventField with context.
func fieldErr(ev, field string, format string, args ...any) error {
	return fmt.Errorf("%w: %s.%s %s", ErrEventField, ev, field, fmt.Sprintf(format, args...))
}

// unicast reports whether a wire address names a node: the broadcast and
// none sentinels never source or sink estimator feedback, and negative
// values are the decoder's "missing" sentinel.
func unicast(v int64) bool { return v >= 0 && v < int64(packet.None) }

// addrErr names why v is not a unicast address.
func addrErr(ev, field string, v int64) error {
	if v < 0 {
		return fieldErr(ev, field, "missing")
	}
	return fieldErr(ev, field, "= %d, not a unicast address", v)
}

// addrField validates a wire address: unicast node addresses only.
func addrField(ev, field string, v int64) (packet.Addr, error) {
	if !unicast(v) {
		return 0, addrErr(ev, field, v)
	}
	return packet.Addr(v), nil
}

// Decode parses one ingest line into ev. The returned error is nil or wraps
// exactly one of ErrEventSyntax, ErrEventKind, ErrEventField. ev.Links
// aliases decoder scratch and is consumed before the next Decode.
func (d *EventDecoder) Decode(line []byte, ev *Event) error {
	d.reset()
	if d.noFastPath || !d.fastDecode(line) {
		// The fast path may have partially filled the scratch before
		// bailing; re-arm and let encoding/json be the arbiter.
		d.reset()
		if err := json.Unmarshal(line, &d.w); err != nil {
			return fmt.Errorf("%w: %v", ErrEventSyntax, err)
		}
	}
	w := &d.w
	switch w.Ev {
	case EvBeacon, EvTx, EvRx, EvAge:
	case EvPoison:
		if !d.AllowPoison {
			return fmt.Errorf("%w: %q", ErrEventKind, w.Ev)
		}
	case "":
		return fmt.Errorf("%w: no \"ev\" field", ErrEventKind)
	default:
		return fmt.Errorf("%w: %q", ErrEventKind, w.Ev)
	}
	*ev = Event{Ev: w.Ev}
	if w.At < 0 {
		return fieldErr(w.Ev, "at", "missing or negative")
	}
	ev.At = sim.Time(w.At)

	switch w.Ev {
	case EvBeacon:
		src, err := addrField(w.Ev, "src", w.Src)
		if err != nil {
			return err
		}
		if w.Seq < 0 || w.Seq > 0xFFFF {
			return fieldErr(w.Ev, "seq", "= %d, want 0..65535", w.Seq)
		}
		if w.LQI < 0 || w.LQI > 255 {
			return fieldErr(w.Ev, "lqi", "= %d, want 0..255", w.LQI)
		}
		if len(w.Links) > packet.MaxLinkEntries {
			return fieldErr(w.Ev, "links", "has %d entries, max %d", len(w.Links), packet.MaxLinkEntries)
		}
		d.links = d.links[:0]
		for i := range w.Links {
			l := &w.Links[i]
			if !unicast(l.Addr) {
				// The field name is built only for the refused entry,
				// so a valid footer formats nothing.
				return addrErr(w.Ev, fmt.Sprintf("links[%d].addr", i), l.Addr)
			}
			if l.Q < 0 || l.Q > 255 {
				return fieldErr(w.Ev, "links", "[%d].q = %d, want 0..255", i, l.Q)
			}
			d.links = append(d.links, packet.LinkEntry{Addr: packet.Addr(l.Addr), InQuality: uint8(l.Q)})
		}
		ev.Src, ev.Seq, ev.LQI = src, uint16(w.Seq), uint8(w.LQI)
		ev.White, ev.SNR, ev.Links = w.White, w.SNR, d.links
	case EvTx:
		dest, err := addrField(w.Ev, "dest", w.Dest)
		if err != nil {
			return err
		}
		if w.Acked == nil {
			return fieldErr(w.Ev, "acked", "missing")
		}
		ev.Src, ev.Acked = dest, *w.Acked
	case EvRx:
		src, err := addrField(w.Ev, "src", w.Src)
		if err != nil {
			return err
		}
		if w.LQI < 0 || w.LQI > 255 {
			return fieldErr(w.Ev, "lqi", "= %d, want 0..255", w.LQI)
		}
		ev.Src, ev.LQI, ev.White, ev.SNR = src, uint8(w.LQI), w.White, w.SNR
	case EvAge:
		if w.Silence <= 0 {
			return fieldErr(w.Ev, "silence", "missing or non-positive")
		}
		ev.Silence = sim.Time(w.Silence)
	}
	return nil
}
