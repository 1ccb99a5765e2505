#include "trace/record.h"

#include <cmath>

namespace jig {

void SerializeHeader(const TraceHeader& h, Bytes& out) {
  ByteWriter w(out);
  w.U16(h.radio);
  w.U16(h.pod);
  w.U16(h.monitor);
  w.U8(static_cast<std::uint8_t>(h.channel));
  w.I64(h.ntp_utc_of_local_zero_us);
  w.U32(h.snaplen);
}

TraceHeader DeserializeHeader(ByteReader& r) {
  TraceHeader h;
  h.radio = r.U16();
  h.pod = r.U16();
  h.monitor = r.U16();
  h.channel = static_cast<Channel>(r.U8());
  h.ntp_utc_of_local_zero_us = r.I64();
  h.snaplen = r.U32();
  return h;
}

void SerializeRecord(const CaptureRecord& rec, LocalMicros prev_timestamp,
                     Bytes& out) {
  ByteWriter w(out);
  // Timestamps are delta-coded: captures are near-monotonic so deltas are
  // small and varint-friendly — this plus the LZ layer stands in for the
  // LZO compression jigdump applies (Section 3.3).
  w.SVarint(rec.timestamp - prev_timestamp);
  w.U8(static_cast<std::uint8_t>(rec.outcome));
  // RSSI quantized to 0.25 dB around -128..+127 dBm.
  const auto q = static_cast<std::int16_t>(std::lround(rec.rssi_dbm * 4.0F));
  w.U16(static_cast<std::uint16_t>(q));
  w.U8(static_cast<std::uint8_t>(rec.rate));
  w.Varint(rec.orig_len);
  w.Varint(rec.bytes.size());
  w.Raw(rec.bytes);
}

namespace {

// Reads one record's fields into `rec` and returns its captured bytes, a
// view into `r`: the one parse DeserializeRecord and SkipRecord share.
std::span<const std::uint8_t> ReadRecord(ByteReader& r,
                                         LocalMicros prev_timestamp,
                                         CaptureRecord& rec) {
  // Unsigned addition: a hostile delta would make the signed sum overflow,
  // which is UB — wraparound gives the same value for every valid trace and
  // a defined (if meaningless) one for corrupt input.
  rec.timestamp = static_cast<LocalMicros>(
      static_cast<std::uint64_t>(prev_timestamp) +
      static_cast<std::uint64_t>(r.SVarint()));
  rec.outcome = static_cast<RxOutcome>(r.U8());
  rec.rssi_dbm = static_cast<float>(static_cast<std::int16_t>(r.U16())) / 4.0F;
  rec.rate = static_cast<PhyRate>(r.U8());
  rec.orig_len = static_cast<std::uint32_t>(r.Varint());
  const auto len = static_cast<std::size_t>(r.Varint());
  return r.Raw(len);
}

}  // namespace

CaptureRecord DeserializeRecord(ByteReader& r, LocalMicros prev_timestamp) {
  CaptureRecord rec;
  const auto raw = ReadRecord(r, prev_timestamp, rec);
  rec.bytes.assign(raw.begin(), raw.end());
  return rec;
}

void SkipRecord(ByteReader& r) {
  CaptureRecord fields;  // its bytes stay empty: nothing is allocated
  ReadRecord(r, 0, fields);
}

}  // namespace jig
