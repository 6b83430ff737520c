// Workload inputs.  Every input is generated from the seed alone, by the
// repository's own simulators (topogen + bgpsim), and handed to the
// measured process as bytes on disk: MRT TABLE_DUMP_V2 RIBs, BGP4MP update
// streams, ASRK1 snapshots.  Generation runs in its own process before the
// measured one, so it is outside every metric, peak memory included.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_set>

#include "asn/asn.h"

namespace asrbench {

/// Generate every input file of `workload` for `seed` into `dir`.
void generate_inputs(const std::string& workload, std::uint64_t seed, const std::string& dir);

/// The IXP route-server ASNs written beside a RIB (sanitizer input).
[[nodiscard]] std::unordered_set<asrank::Asn> read_ixps(const std::string& path);

}  // namespace asrbench
