#pragma once
// cx::net on-socket frame format and connection handshake.
//
// HostMachine ranks exchange cx::wire envelopes verbatim: the frame is the
// Message's wire-relevant header fields plus its payload bytes, behind
// a u32 length prefix —
//
//   u32 len   (bytes that follow: header + payload; NOT including len)
//   u8  kind  (0 = data, 1 = control)
//   u8  ft_flags      | the cx::ft reliable-delivery header travels
//   u8  wire_flags    | unchanged, so seq/ack/retransmit and batch
//   u8  reserved      | unpacking work across processes
//   u32 handler       (control frames: opcode)
//   i32 src_pe
//   i32 dst_pe
//   i32 ft_peer
//   u64 ft_seq
//   u64 size_override
//   payload bytes (the Message's cx::wire Buffer, byte-for-byte)
//
// Fields are host-endian and host-width: the payload itself is packed
// by pup with raw memcpy, so byte-swapping the header alone would buy
// nothing. Instead every connection starts with a Handshake carrying a
// magic, a format version, an endianness probe and the primitive
// widths; mismatched peers are rejected with a clear error rather than
// silently corrupting (full byte-swapping support is out of scope).

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "machine/message.hpp"

namespace cxnet {

// ---- frame ---------------------------------------------------------------

inline constexpr std::size_t kFrameHeaderBytes = 36;  ///< after the u32 len
/// Upper bound on a single frame (header + payload). A length prefix
/// beyond this is a protocol violation and closes the connection —
/// the reader never allocates based on the prefix, so a hostile
/// 0xffffffff cannot OOM the process.
inline constexpr std::size_t kMaxFrameBytes = 64u << 20;

enum class FrameKind : std::uint8_t { Data = 0, Control = 1 };

/// Control opcodes (carried in the handler field of control frames).
enum class ControlOp : std::uint32_t {
  Stop = 0,    ///< cx::exit() — stop every rank's scheduler
  Kill = 1,    ///< inject_kill(dst_pe) forwarded to the owning rank
  Hang = 2,    ///< inject_hang(dst_pe)
  Revive = 3,  ///< revive_pe(dst_pe)
};

/// A decoded frame. `payload` points into the FrameReader's buffer and
/// stays valid until the next feed() call.
struct Frame {
  FrameKind kind = FrameKind::Data;
  std::uint8_t ft_flags = 0;
  std::uint8_t wire_flags = 0;
  std::uint32_t handler = 0;
  std::int32_t src_pe = -1;
  std::int32_t dst_pe = 0;
  std::int32_t ft_peer = -1;
  std::uint64_t ft_seq = 0;
  std::uint64_t size_override = 0;
  const std::byte* payload = nullptr;
  std::size_t payload_len = 0;
};

/// Serialize a Message (data frame) — length prefix included.
std::vector<std::byte> encode_frame(const cxm::Message& m);

/// Serialize a control frame.
std::vector<std::byte> encode_control(ControlOp op, std::int32_t dst_pe,
                                      std::int32_t src_pe);

/// Rebuild a pooled Message from a decoded data frame (copies payload).
cxm::MessagePtr frame_to_message(const Frame& f);

/// Incremental frame decoder over a TCP byte stream. Feed whatever the
/// socket produced; next() yields complete frames. Violations (bad
/// length prefix) put the reader in a sticky error state — the caller
/// must drop the connection.
class FrameReader {
 public:
  explicit FrameReader(std::size_t max_frame = kMaxFrameBytes)
      : max_frame_(max_frame) {}

  enum class Status { Frame, NeedMore, Error };

  void feed(const std::byte* p, std::size_t n);

  /// Extract the next complete frame. On Status::Frame, `out.payload`
  /// stays valid until the next feed().
  Status next(Frame& out);

  [[nodiscard]] const std::string& error() const noexcept { return error_; }
  [[nodiscard]] bool failed() const noexcept { return !error_.empty(); }
  /// Bytes buffered but not yet consumed (a mid-frame EOF leaves some).
  [[nodiscard]] std::size_t pending_bytes() const noexcept {
    return buf_.size() - head_;
  }

 private:
  std::size_t max_frame_;
  std::vector<std::byte> buf_;
  std::size_t head_ = 0;
  std::string error_;
};

// ---- handshake -----------------------------------------------------------

inline constexpr std::uint32_t kHandshakeMagic = 0x4d535843;  // "CXSM"
inline constexpr std::uint16_t kWireVersion = 1;
inline constexpr std::uint32_t kEndianProbe = 0x01020304;
inline constexpr std::size_t kHandshakeBytes = 28;

/// First bytes on every connection (rendezvous and mesh). Native-endian
/// like the frames; the probe field is how a foreign byte order is
/// detected (it reads back as 0x04030201 there).
struct Handshake {
  std::uint32_t magic = kHandshakeMagic;
  std::uint16_t version = kWireVersion;
  std::uint16_t header_bytes = static_cast<std::uint16_t>(kFrameHeaderBytes);
  std::uint32_t endian_probe = kEndianProbe;
  std::uint8_t size_t_width = sizeof(std::size_t);
  std::uint8_t pointer_width = sizeof(void*);
  std::uint8_t long_width = sizeof(long);
  std::uint8_t double_width = sizeof(double);
  std::uint32_t rank = 0;
  std::uint32_t nranks = 1;
  std::uint32_t ppn = 1;
};

void encode_handshake(const Handshake& h, std::byte out[kHandshakeBytes]);
Handshake decode_handshake(const std::byte in[kHandshakeBytes]);

/// Validate a peer's handshake against ours. Returns "" when the peer
/// speaks our wire format (and agrees on the job geometry), otherwise a
/// human-readable description of the mismatch.
std::string handshake_check(const Handshake& mine, const Handshake& theirs);

}  // namespace cxnet
