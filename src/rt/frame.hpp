// The length-prefixed envelope frame of the socket transport.
//
// Frame: u32 payload length | u64 src | u64 dst | u8 kind | u64 trace_id |
// u32 hop | u64 span_id | u64 parent_span_id | payload bytes. Frames are
// self-delimiting, so any number of them multiplex over one persistent
// stream. (queued_at is receiver-local and deliberately NOT on the wire.)
//
// ConnPool writes it and ProcessRuntime's per-connection reader threads
// parse it (Unix-domain streams), in the parent and in every worker alike,
// so parent and workers are wire compatible by construction.
#pragma once

#include <cstddef>
#include <cstdint>

#include "rt/envelope.hpp"

namespace legion::rt {

inline constexpr std::size_t kFrameHeaderBytes = 4 + 8 + 8 + 1 + 8 + 4 + 8 + 8;
inline constexpr std::uint32_t kMaxFrameBytes = 64u << 20;  // 64 MiB sanity cap

namespace frame_detail {
inline void PutU32(std::uint8_t* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
inline void PutU64(std::uint8_t* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
inline std::uint32_t GetU32(const std::uint8_t* in) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(in[i]) << (8 * i);
  return v;
}
inline std::uint64_t GetU64(const std::uint8_t* in) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(in[i]) << (8 * i);
  return v;
}
}  // namespace frame_detail

// Writes the header for `env` into `out` (at least kFrameHeaderBytes).
inline void EncodeFrameHeader(const Envelope& env, std::uint8_t* out) {
  using frame_detail::PutU32;
  using frame_detail::PutU64;
  PutU32(out, static_cast<std::uint32_t>(env.payload.size()));
  PutU64(out + 4, env.src.value);
  PutU64(out + 12, env.dst.value);
  out[20] = static_cast<std::uint8_t>(env.kind);
  PutU64(out + 21, env.trace_id);
  PutU32(out + 29, env.hop);
  PutU64(out + 33, env.span_id);
  PutU64(out + 41, env.parent_span_id);
}

// Fills everything except the payload bytes from a raw header; returns the
// payload length the sender declared (callers must still range-check it
// against kMaxFrameBytes before trusting it).
inline std::uint32_t DecodeFrameHeader(const std::uint8_t* in, Envelope& env) {
  using frame_detail::GetU32;
  using frame_detail::GetU64;
  env.src = EndpointId{GetU64(in + 4)};
  env.dst = EndpointId{GetU64(in + 12)};
  env.kind = static_cast<DeliveryKind>(in[20]);
  env.trace_id = GetU64(in + 21);
  env.hop = GetU32(in + 29);
  env.span_id = GetU64(in + 33);
  env.parent_span_id = GetU64(in + 41);
  return GetU32(in);
}

}  // namespace legion::rt
