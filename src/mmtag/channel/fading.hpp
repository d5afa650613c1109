// Small-scale fading: Rician/Rayleigh block fading.
#pragma once

#include "mmtag/common.hpp"
#include "mmtag/runtime/gaussian_source.hpp"

namespace mmtag::channel {

/// Draws one Rician block-fading field coefficient with mean power 1.
/// `k_factor_db` is the LOS-to-scatter power ratio; k -> -inf gives Rayleigh,
/// k -> +inf gives a pure LOS (unit) coefficient.
[[nodiscard]] cf64 rician_coefficient(double k_factor_db,
                                      runtime::gaussian_source& gaussian);

} // namespace mmtag::channel
