#include "mmtag/channel/fading.hpp"

namespace mmtag::channel {

cf64 rician_coefficient(double k_factor_db, runtime::gaussian_source& gaussian)
{
    const double k = from_db(k_factor_db);
    const double los_amplitude = std::sqrt(k / (k + 1.0));
    const double scatter_sigma = std::sqrt(1.0 / (2.0 * (k + 1.0)));
    const double in_phase = los_amplitude + scatter_sigma * gaussian.normal();
    return cf64{in_phase, scatter_sigma * gaussian.normal()};
}

} // namespace mmtag::channel
