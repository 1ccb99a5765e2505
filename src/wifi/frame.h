// 802.11 MAC frame model (paper Section 2).
//
// Frames are the atoms of everything downstream: the simulator transmits
// them, monitors capture (possibly corrupted copies of) them, and Jigsaw
// unifies, orders and reconstructs conversations from them.  The wire format
// here follows real 802.11 closely enough that the parsing side of the
// pipeline is honest work: frame-control type/subtype bits, duration field,
// 1–3 addresses, a 12-bit sequence number for DATA/MANAGEMENT, a body, and a
// trailing CRC-32 FCS.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "util/byte_io.h"
#include "wifi/mac_address.h"
#include "wifi/rates.h"

namespace jig {

enum class FrameType : std::uint8_t {
  kData,
  kAck,
  kRts,
  kCts,  // CTS-to-self when addr1 == the transmitter itself
  kBeacon,
  kProbeRequest,
  kProbeResponse,
  kAssocRequest,
  kAssocResponse,
  kAuthentication,
  kDeauthentication,
};

constexpr bool IsManagement(FrameType t) {
  switch (t) {
    case FrameType::kBeacon:
    case FrameType::kProbeRequest:
    case FrameType::kProbeResponse:
    case FrameType::kAssocRequest:
    case FrameType::kAssocResponse:
    case FrameType::kAuthentication:
    case FrameType::kDeauthentication:
      return true;
    default:
      return false;
  }
}
constexpr bool IsControl(FrameType t) {
  return t == FrameType::kAck || t == FrameType::kRts || t == FrameType::kCts;
}
constexpr bool IsData(FrameType t) { return t == FrameType::kData; }

std::string FrameTypeName(FrameType t);

// Frame-control type/subtype encoding per IEEE 802.11-1999 Table 1.
// Exposed so hot paths can classify a capture from its first two bytes
// without a full parse (e.g. bootstrap reference screening).
struct TypeBits {
  std::uint8_t type = 0;     // 0 mgmt, 1 ctrl, 2 data
  std::uint8_t subtype = 0;  // 4 bits
};
TypeBits ToBits(FrameType t);
std::optional<FrameType> FromBits(std::uint8_t type, std::uint8_t subtype);

struct Frame {
  FrameType type = FrameType::kData;
  bool retry = false;
  bool from_ds = false;  // AP -> client direction for DATA frames
  bool to_ds = false;    // client -> AP direction for DATA frames
  // Duration field: microseconds of medium reservation after this frame
  // (NAV), e.g. SIFS + ACK for unicast DATA (Section 2).
  std::uint16_t duration_us = 0;
  MacAddress addr1;  // receiver address (RA); only address in ACK/CTS
  MacAddress addr2;  // transmitter address (TA); absent in ACK/CTS
  MacAddress addr3;  // BSSID / DS address for DATA and MANAGEMENT
  std::uint16_t sequence = 0;  // 12-bit, DATA/MANAGEMENT only
  PhyRate rate = PhyRate::kB1;
  Bytes body;

  // --- Field presence -----------------------------------------------------
  bool HasSequence() const { return !IsControl(type); }
  // ACK and CTS carry only the receiver address (Section 2: "some frames
  // only specify the transmitter or receiver").
  bool HasTransmitter() const {
    return type != FrameType::kAck && type != FrameType::kCts;
  }

  // Best-known transmitter: addr2 where present.  For CTS(-to-self) frames
  // addr1 is the reserving station itself, which is why link reconstruction
  // can attribute them (Section 5.1).
  std::optional<MacAddress> Transmitter() const {
    if (HasTransmitter()) return addr2;
    if (type == FrameType::kCts) return addr1;  // assume CTS-to-self
    return std::nullopt;
  }

  bool IsCtsToSelf() const { return type == FrameType::kCts; }
  bool IsBroadcast() const { return addr1.IsBroadcast(); }

  // --- Wire form ----------------------------------------------------------
  std::size_t WireSize() const;  // bytes including FCS
  // Serializes header + body and appends the (correct) FCS.
  Bytes Serialize() const;

  // Air time at this frame's rate, including PLCP overhead.
  Micros AirTimeMicros() const { return TxDurationMicros(rate, WireSize()); }

  // Returns all fields to their default-constructed values while keeping
  // body's heap allocation, so a parse scratch (ParseFrameInto) re-parses
  // without reallocating.
  void Reset() {
    type = FrameType::kData;
    retry = from_ds = to_ds = false;
    duration_us = 0;
    addr1 = addr2 = addr3 = MacAddress();
    sequence = 0;
    rate = PhyRate::kB1;
    body.clear();
  }

  std::string Summary() const;  // one-line human-readable description
};

// Parse result: a frame plus whether the trailing FCS matched the content.
struct ParsedFrame {
  Frame frame;
  bool fcs_ok = false;
  std::uint32_t fcs = 0;  // FCS as found on the wire
};

// Parses wire bytes.  Returns nullopt when the buffer is too short to carry
// even a header of the indicated type (i.e. truncated beyond use).  The
// caller supplies the receive rate, which travels in the PLCP header on a
// real capture, not in the MAC frame.
std::optional<ParsedFrame> ParseFrame(std::span<const std::uint8_t> wire,
                                      PhyRate rate);

// Allocation-reusing variant for the merge hot path: parses into `out`,
// reusing out.frame.body's capacity instead of building a fresh ParsedFrame
// per capture.  Returns false (leaving `out` reset) on the same inputs for
// which ParseFrame returns nullopt.
bool ParseFrameInto(std::span<const std::uint8_t> wire, PhyRate rate,
                    ParsedFrame& out);

// 64-bit content digest of serialized frame bytes.  Used as the unification
// pre-key; equality is always confirmed by byte comparison, so the only
// requirements are determinism within a run and a low collision rate — the
// implementation is an 8-byte-lane multiply-mix chosen for speed, not a
// standard hash.
std::uint64_t ContentDigest(std::span<const std::uint8_t> wire);

// Management-frame body conventions (stand-in for 802.11 capability and ERP
// information elements):
//   body[0] bit0 — station is 802.11b-only (probe/assoc requests)
//   body[1] bit0 — BSS protection active (beacons, probe/assoc responses)
constexpr std::uint8_t kCapBOnly = 0x01;
constexpr std::uint8_t kErpProtection = 0x01;

// --- Frame factories used by the simulator's MAC --------------------------
Frame MakeAck(MacAddress receiver, PhyRate rate);
Frame MakeCtsToSelf(MacAddress self, Micros reserve_us, PhyRate rate);
Frame MakeRts(MacAddress receiver, MacAddress transmitter, Micros reserve_us,
              PhyRate rate);
Frame MakeData(MacAddress receiver, MacAddress transmitter, MacAddress bssid,
               std::uint16_t sequence, Bytes body, PhyRate rate, bool from_ds,
               bool to_ds);
Frame MakeBeacon(MacAddress ap, std::uint16_t sequence, PhyRate rate);
Frame MakeProbeRequest(MacAddress client, std::uint16_t sequence);
Frame MakeProbeResponse(MacAddress ap, MacAddress client,
                        std::uint16_t sequence, PhyRate rate);

}  // namespace jig
