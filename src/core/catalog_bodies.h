// The experiment catalog's body rows (core/catalog.h): the experiments that
// wire their own runs. Each runs every simulation under the row's AuditOptions
// and prints its tables; catalog.cc lists them as rows.
#ifndef INCAST_CORE_CATALOG_BODIES_H_
#define INCAST_CORE_CATALOG_BODIES_H_

#include <cstdio>

#include "core/catalog.h"
#include "tcp/tcp_config.h"

namespace incast::core::rows {

// The Section 5 transports' TCP settings: the TcpConfig defaults (200 ms
// min RTO, IW10) with `algo`, INT stamping for HPCC and a one-segment
// initial window for Swift.
[[nodiscard]] tcp::TcpConfig tcp_config(tcp::CcAlgorithm algo);

// Section 3: the service catalog and the fleet measurement figures.
void table1_services(Scale scale, const AuditOptions& audit, std::FILE* out);
void fig1_example_trace(Scale scale, const AuditOptions& audit, std::FILE* out);
void fig2_burst_characteristics(Scale scale, const AuditOptions& audit, std::FILE* out);
void fig3_stability(Scale scale, const AuditOptions& audit, std::FILE* out);
void fig4_network_effects(Scale scale, const AuditOptions& audit, std::FILE* out);

// The fabric vantage extension, and the ablations and Section 5 extensions
// that build their own simulators.
void fig8_fabric_vantage(Scale scale, const AuditOptions& audit, std::FILE* out);
void ablation_shared_buffer(Scale scale, const AuditOptions& audit, std::FILE* out);
void ablation_tlp(Scale scale, const AuditOptions& audit, std::FILE* out);
void ablation_contention(Scale scale, const AuditOptions& audit, std::FILE* out);
void extension_swift(Scale scale, const AuditOptions& audit, std::FILE* out);
void extension_staged(Scale scale, const AuditOptions& audit, std::FILE* out);
void extension_hpcc(Scale scale, const AuditOptions& audit, std::FILE* out);
void extension_credit(Scale scale, const AuditOptions& audit, std::FILE* out);

}  // namespace incast::core::rows

#endif  // INCAST_CORE_CATALOG_BODIES_H_
