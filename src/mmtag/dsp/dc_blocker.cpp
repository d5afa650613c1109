#include "mmtag/dsp/dc_blocker.hpp"

#include <stdexcept>

namespace mmtag::dsp {

dc_blocker::dc_blocker(double pole) : pole_(pole)
{
    if (!(pole > 0.0 && pole < 1.0)) {
        throw std::invalid_argument("dc_blocker: pole must be in (0, 1)");
    }
}

void dc_blocker::process(std::span<cf64> buffer)
{
    for (cf64& x : buffer) {
        const cf64 input = x;
        x = input - previous_input_ + pole_ * previous_output_;
        previous_input_ = input;
        previous_output_ = x;
    }
}

void remove_mean(std::span<cf64> buffer)
{
    if (buffer.empty()) return;
    cf64 mean{};
    for (cf64 x : buffer) mean += x;
    mean /= static_cast<double>(buffer.size());
    for (cf64& x : buffer) x -= mean;
}

} // namespace mmtag::dsp
