#include "src/net/frame.h"

#include <stdexcept>
#include <string>

namespace blurnet::net {

namespace {

void put_u16_le(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32_le(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<std::uint8_t>((v >> shift) & 0xFF));
  }
}

std::uint16_t read_u16_le(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t read_u32_le(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace

void append_frame(std::vector<std::uint8_t>& out, Opcode opcode, std::uint32_t request_id,
                  const std::vector<std::uint8_t>& payload) {
  if (payload.size() > 0xFFFFFFFFu) {
    throw WireError("append_frame: payload of " + std::to_string(payload.size()) +
                    " bytes exceeds the u32 length prefix");
  }
  out.reserve(out.size() + kHeaderBytes + payload.size());
  put_u32_le(out, kMagic);
  out.push_back(kVersion);
  out.push_back(static_cast<std::uint8_t>(opcode));
  put_u16_le(out, 0);  // reserved, must be zero
  put_u32_le(out, request_id);
  put_u32_le(out, static_cast<std::uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
}

std::vector<std::uint8_t> encode_frame(Opcode opcode, std::uint32_t request_id,
                                       const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> out;
  append_frame(out, opcode, request_id, payload);
  return out;
}

FrameDecoder::FrameDecoder(std::size_t max_frame_bytes) : max_frame_bytes_(max_frame_bytes) {
  if (max_frame_bytes_ < kHeaderBytes) {
    throw std::invalid_argument("FrameDecoder: max_frame_bytes must be >= the " +
                                std::to_string(kHeaderBytes) + "-byte header (got " +
                                std::to_string(max_frame_bytes_) + ")");
  }
}

void FrameDecoder::feed(const std::uint8_t* data, std::size_t n) {
  // Compact lazily: once the consumed prefix dominates, slide the tail down
  // so the buffer never grows past (one frame + one read chunk).
  if (offset_ > 0 && offset_ >= buffer_.size() / 2) {
    buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<std::ptrdiff_t>(offset_));
    offset_ = 0;
  }
  buffer_.insert(buffer_.end(), data, data + n);
}

bool FrameDecoder::next(Frame& out) {
  if (buffered() < kHeaderBytes) return false;
  const std::uint8_t* header = buffer_.data() + offset_;

  const std::uint32_t magic = read_u32_le(header);
  if (magic != kMagic) {
    throw WireError("frame: bad magic 0x" + [magic] {
      static const char* digits = "0123456789abcdef";
      std::string hex;
      for (int shift = 28; shift >= 0; shift -= 4) hex += digits[(magic >> shift) & 0xF];
      return hex;
    }() + " (expected 0x544e4c42 \"BLNT\" — is the peer speaking the blurnetd protocol?)");
  }
  const std::uint8_t version = header[4];
  if (version != kVersion) {
    throw WireError("frame: unsupported protocol version " + std::to_string(version) +
                    " (this build speaks version " + std::to_string(kVersion) + ")");
  }
  const std::uint8_t raw_opcode = header[5];
  if (!is_known_opcode(raw_opcode)) {
    throw WireError("frame: unknown opcode " + std::to_string(raw_opcode));
  }
  if (read_u16_le(header + 6) != 0) {
    throw WireError("frame: reserved header bytes must be zero");
  }
  const std::uint32_t request_id = read_u32_le(header + 8);
  const std::uint32_t payload_bytes = read_u32_le(header + 12);
  if (kHeaderBytes + static_cast<std::size_t>(payload_bytes) > max_frame_bytes_) {
    throw WireError("frame: length prefix of " + std::to_string(payload_bytes) +
                    " payload bytes exceeds the " + std::to_string(max_frame_bytes_) +
                    "-byte frame bound");
  }
  if (buffered() < kHeaderBytes + payload_bytes) return false;  // mid-frame

  out.opcode = static_cast<Opcode>(raw_opcode);
  out.request_id = request_id;
  const std::uint8_t* payload = header + kHeaderBytes;
  out.payload.assign(payload, payload + payload_bytes);
  offset_ += kHeaderBytes + payload_bytes;
  return true;
}

}  // namespace blurnet::net
