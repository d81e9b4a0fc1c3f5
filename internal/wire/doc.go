// Package wire is the framed message codec shared by the monitoring
// (internal/monitor) and decentralized-learning (internal/decentral) TCP
// transports. Every message is a fixed-layout binfmt payload wrapped in a
// self-delimiting frame:
//
//	magic (2) | flag (1) | length (4, big-endian) | CRC32-IEEE (4) | [trace ext (25)] | payload
//
// The flag byte is 0x82 for an untraced frame and 0x83 for a traced one,
// whose trace extension (trace id, span id, send time, attempt) sits
// between the header and the payload; no other flag byte is valid. Encode
// and AppendBinaryFrame write frames, Decode and ReadFrame read them.
//
// Properties the robustness layer depends on:
//
//   - Truncated frames surface as io.ErrUnexpectedEOF, never a panic.
//   - Corrupted payloads or trace extensions fail the checksum
//     (ErrChecksum) after the whole frame is consumed, so a receiver can
//     skip the bad frame and keep reading the stream. A CRC-valid payload
//     that does not parse (binfmt.ErrMalformed) is skippable the same way.
//   - Lengths are capped (ErrTooLarge) before any allocation happens.
//   - Frames are independent: no state leaks between messages, and a lost
//     frame never desynchronizes its successors.
//
// FuzzDecodeMessage in this package's tests asserts the never-panic
// contract against arbitrary byte soup.
package wire
