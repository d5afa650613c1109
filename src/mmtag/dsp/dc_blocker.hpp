// Single-pole DC removal filter — the first stage of self-interference
// suppression at the AP (unmodulated leakage lands exactly at DC after
// self-coherent downconversion). Both filters work on the caller's buffer in
// place.
#pragma once

#include <span>

#include "mmtag/common.hpp"

namespace mmtag::dsp {

/// y[n] = x[n] - x[n-1] + r * y[n-1]; `r` close to 1 gives a narrow notch at
/// DC with near-unity passband gain.
class dc_blocker {
public:
    explicit dc_blocker(double pole = 0.999);

    /// Filters a buffer in place; the filter state carries across calls.
    void process(std::span<cf64> buffer);

private:
    double pole_;
    cf64 previous_input_{};
    cf64 previous_output_{};
};

/// Subtracts the buffer mean (block DC estimate) in place — the
/// non-streaming variant.
void remove_mean(std::span<cf64> buffer);

} // namespace mmtag::dsp
