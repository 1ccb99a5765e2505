// Per-radio capture records — the raw material Jigsaw consumes.
//
// This mirrors what the paper's modified MadWifi driver + jigdump deliver
// (Section 3.3): every physical-layer event, not just valid frames —
// corrupted frames (FCS failures) and PHY errors included — each stamped by
// the radio's local 1 us clock and annotated with signal strength and rate.
#pragma once

#include <cstdint>
#include <string>

#include "phy/propagation.h"
#include "util/byte_io.h"
#include "util/time.h"
#include "wifi/channel.h"
#include "wifi/rates.h"

namespace jig {

// Dense radio index, assigned by the scenario: pods * 4 radios.
using RadioId = std::uint16_t;
constexpr RadioId kInvalidRadio = 0xFFFF;

struct CaptureRecord {
  LocalMicros timestamp = 0;  // local clock at start of reception
  RxOutcome outcome = RxOutcome::kOk;
  float rssi_dbm = 0.0F;
  PhyRate rate = PhyRate::kB1;
  std::uint32_t orig_len = 0;  // frame length on the air (bytes incl. FCS)
  // Captured bytes: possibly snap-truncated, and corrupted for kFcsError
  // records.  Empty for kPhyError (the PLCP payload never decoded).
  Bytes bytes;

  bool IsDecodable() const { return outcome == RxOutcome::kOk; }
  bool IsError() const { return outcome != RxOutcome::kOk; }
};

// Identifies a radio's place in the deployment.  Radios on the same monitor
// share a capture clock (the driver slaves both to one reference — Section
// 3.3), which is what lets bootstrap synchronization bridge channels.
struct TraceHeader {
  RadioId radio = kInvalidRadio;
  std::uint16_t pod = 0;
  std::uint16_t monitor = 0;  // global monitor index; 2 radios per monitor
  Channel channel = Channel::kCh1;
  // Monitor system-clock (NTP) estimate of the UTC time, in us, at which
  // this trace's local clock read zero.  Accurate to milliseconds; used
  // only to window the bootstrap search (paper footnote 4).
  std::int64_t ntp_utc_of_local_zero_us = 0;
  std::uint32_t snaplen = 224;  // MAC header + ~200 payload bytes

  std::string Name() const {
    return "pod" + std::to_string(pod) + "/mon" + std::to_string(monitor) +
           "/" + ChannelName(channel) + "/r" + std::to_string(radio);
  }
};

void SerializeHeader(const TraceHeader& h, Bytes& out);
TraceHeader DeserializeHeader(ByteReader& r);

void SerializeRecord(const CaptureRecord& rec, LocalMicros prev_timestamp,
                     Bytes& out);
CaptureRecord DeserializeRecord(ByteReader& r, LocalMicros prev_timestamp);
// Reads past one serialized record without materializing its bytes: the
// reads DeserializeRecord makes, so it fails on exactly the same input.
void SkipRecord(ByteReader& r);

}  // namespace jig
