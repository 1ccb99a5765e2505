#include "jigsaw/spill.h"

#include <bit>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

namespace jig {
namespace {

namespace fs = std::filesystem;

constexpr const char* kWhat = "spill segment";
// Fast level: output-log blocks are cut on the service's poll loop, so
// compression latency matters more than ratio here.
constexpr block_codec::Format kSpillFormat{kSpillMagic, kSpillVersion, kWhat,
                                           LzLevel::kFast};

Bytes EncodeSegmentHeader(const SpillSegmentHeader& h) {
  Bytes out;
  ByteWriter w(out);
  w.U8(h.channel);
  w.U64(h.sequence);
  return out;
}

SpillSegmentHeader DeserializeSegmentHeader(ByteReader& r) {
  SpillSegmentHeader h;
  h.channel = r.U8();
  h.sequence = r.U64();
  return h;
}

constexpr std::uint8_t kFrameRetry = 0x01;
constexpr std::uint8_t kFrameFromDs = 0x02;
constexpr std::uint8_t kFrameToDs = 0x04;

}  // namespace

// ---------------------------------------------------------------------------
// JFrame (de)serialization.  The layout is fixed in docs/FORMATS.md; any
// change here needs a kSpillVersion bump and a spec update.

void SerializeJFrame(const JFrame& jf, Bytes& out) {
  ByteWriter w(out);
  w.I64(jf.timestamp);
  w.I64(jf.dispersion);
  w.U8(static_cast<std::uint8_t>(jf.channel));
  w.U8(static_cast<std::uint8_t>(jf.rate));
  w.U32(jf.wire_len);
  w.U64(jf.digest);
  // Representative frame, field by field (not wire bytes: Frame carries
  // fields the wire form does not, e.g. the PLCP-delivered rate).
  const Frame& f = jf.frame;
  w.U8(static_cast<std::uint8_t>(f.type));
  w.U8(static_cast<std::uint8_t>((f.retry ? kFrameRetry : 0) |
                                 (f.from_ds ? kFrameFromDs : 0) |
                                 (f.to_ds ? kFrameToDs : 0)));
  w.U16(f.duration_us);
  w.Raw(f.addr1.octets());
  w.Raw(f.addr2.octets());
  w.Raw(f.addr3.octets());
  w.U16(f.sequence);
  w.U8(static_cast<std::uint8_t>(f.rate));
  w.Varint(f.body.size());
  w.Raw(f.body);
  w.Varint(jf.instances.size());
  for (const FrameInstance& inst : jf.instances) {
    w.U16(inst.radio);
    w.I64(inst.local_timestamp);
    w.I64(inst.universal_timestamp);
    w.U32(std::bit_cast<std::uint32_t>(inst.rssi_dbm));  // bit-exact float
    w.U8(static_cast<std::uint8_t>(inst.outcome));
  }
}

JFrame DeserializeJFrame(ByteReader& r) {
  JFrame jf;
  jf.timestamp = r.I64();
  jf.dispersion = r.I64();
  jf.channel = static_cast<Channel>(r.U8());
  jf.rate = static_cast<PhyRate>(r.U8());
  jf.wire_len = r.U32();
  jf.digest = r.U64();
  Frame& f = jf.frame;
  f.type = static_cast<FrameType>(r.U8());
  const std::uint8_t flags = r.U8();
  f.retry = (flags & kFrameRetry) != 0;
  f.from_ds = (flags & kFrameFromDs) != 0;
  f.to_ds = (flags & kFrameToDs) != 0;
  f.duration_us = r.U16();
  const auto read_addr = [&r] {
    std::array<std::uint8_t, 6> octets{};
    const auto raw = r.Raw(6);
    std::memcpy(octets.data(), raw.data(), 6);
    return MacAddress(octets);
  };
  f.addr1 = read_addr();
  f.addr2 = read_addr();
  f.addr3 = read_addr();
  f.sequence = r.U16();
  f.rate = static_cast<PhyRate>(r.U8());
  const auto body_len = static_cast<std::size_t>(r.Varint());
  const auto body = r.Raw(body_len);
  f.body.assign(body.begin(), body.end());
  const auto n_instances = static_cast<std::size_t>(r.Varint());
  // Each instance occupies 23 wire bytes (u16+i64+i64+u32+u8); a declared
  // count the remaining input cannot hold is corrupt, and reserving for it
  // unchecked would let a hostile varint demand gigabytes up front.
  constexpr std::size_t kInstanceWireBytes = 2 + 8 + 8 + 4 + 1;
  if (n_instances > r.remaining() / kInstanceWireBytes) {
    throw std::runtime_error("JFrame instance count exceeds available input");
  }
  jf.instances.reserve(n_instances);
  for (std::size_t i = 0; i < n_instances; ++i) {
    FrameInstance inst;
    inst.radio = r.U16();
    inst.local_timestamp = r.I64();
    inst.universal_timestamp = r.I64();
    inst.rssi_dbm = std::bit_cast<float>(r.U32());
    inst.outcome = static_cast<RxOutcome>(r.U8());
    jf.instances.push_back(inst);
  }
  return jf;
}

// ---------------------------------------------------------------------------
// SpillSegmentWriter.

SpillSegmentWriter::SpillSegmentWriter(const fs::path& path,
                                       const SpillSegmentHeader& header,
                                       std::size_t records_per_block)
    : encoder_(std::make_unique<block_codec::FileSink>(path, kWhat),
               kSpillFormat, EncodeSegmentHeader(header), records_per_block) {}

// ---------------------------------------------------------------------------
// SpillSegmentReader.

SpillSegmentReader::SpillSegmentReader(const fs::path& path, bool strict)
    : file_(path), strict_(strict) {
  Bytes frame;
  const block_codec::Frame prefix =
      file_.ReadFrame(0, frame, [](std::span<const std::uint8_t> bytes) {
        return block_codec::ParsePrefix(bytes, kSpillFormat);
      });
  // Both modes: a segment whose header never landed is a writer that died
  // right after creating it.
  if (prefix.status != block_codec::Status::kComplete) {
    throw TraceTruncatedError("spill segment ends inside its header: " +
                              path.string());
  }
  block_codec::ParseComplete(prefix.body, "spill segment header",
                             [this](ByteReader& r) {
                               header_ = DeserializeSegmentHeader(r);
                             });
  offset_ = prefix.size;
}

bool SpillSegmentReader::LoadNextBlock() {
  if (finalized_) return false;
  Bytes frame;
  const block_codec::Frame unit =
      file_.ReadFrame(offset_, frame, block_codec::ParseUnit);
  switch (unit.status) {
    case block_codec::Status::kNeedMore:
      // Strict: a crash mid-write.  Tail: the writer has not published
      // this far yet; the next call re-polls from the same frontier.
      if (strict_) {
        throw TraceTruncatedError(
            "spill segment: truncated (file ends mid-structure)");
      }
      return false;
    case block_codec::Status::kMarker:
      finalized_ = true;
      return false;
    case block_codec::Status::kComplete:
      break;
  }
  const Bytes raw = block_codec::Inflate(
      unit.body,
      strict_ ? block_codec::TornPayload::kTruncated
              : block_codec::TornPayload::kCorrupt,
      kWhat);
  block_.clear();
  block_pos_ = 0;
  block_codec::ParseComplete(raw, kWhat, [this](ByteReader& r) {
    while (!r.AtEnd()) block_.push_back(DeserializeJFrame(r));
  });
  offset_ += unit.size;
  ++blocks_read_;
  return true;
}

std::optional<JFrame> SpillSegmentReader::Next() {
  while (block_pos_ >= block_.size()) {
    // In strict mode a segment that ends between blocks without the
    // finalize marker throws TraceTruncatedError from LoadNextBlock (the
    // length-word read hits EOF): a writer that died between blocks is
    // still a crash mid-write, not a complete segment.
    if (!LoadNextBlock()) return std::nullopt;
  }
  ++records_read_;
  return std::move(block_[block_pos_++]);
}

}  // namespace jig
