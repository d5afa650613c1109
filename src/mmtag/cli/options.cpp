#include "mmtag/cli/options.hpp"

#include <cmath>
#include <stdexcept>

namespace mmtag::cli {

option_set option_set::parse(int argc, const char* const* argv)
{
    if (argc < 2) throw std::invalid_argument("missing subcommand");
    const std::string command = argv[1];
    if (command.empty() || command[0] == '-') {
        throw std::invalid_argument("first argument must be a subcommand, got '" +
                                    command + "'");
    }
    // The subcommand stands where parse_flags expects the program name.
    option_set out = parse_flags(argc - 1, argv + 1);
    out.command_ = command;
    return out;
}

option_set option_set::parse_flags(int argc, const char* const* argv)
{
    option_set out;
    for (int i = 1; i < argc; ++i) {
        std::string token = argv[i];
        if (token.rfind("--", 0) != 0 || token.size() <= 2) {
            throw std::invalid_argument("unexpected argument '" + token +
                                        "' (expected --key)");
        }
        token.erase(0, 2);
        std::string value;
        const auto equals = token.find('=');
        if (equals != std::string::npos) {
            value = token.substr(equals + 1);
            token.resize(equals);
        } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
            value = argv[++i];
        } else {
            value = "true"; // bare flag
        }
        if (out.values_.count(token) != 0) {
            throw std::invalid_argument("duplicate option --" + token);
        }
        out.values_[token] = value;
    }
    return out;
}

bool option_set::has(const std::string& key) const
{
    return values_.count(key) != 0;
}

double option_set::get_double(const std::string& key, double fallback) const
{
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    consumed_[key] = true;
    try {
        std::size_t used = 0;
        const double value = std::stod(it->second, &used);
        if (used == it->second.size() && std::isfinite(value)) return value;
    } catch (const std::exception&) {
        // unparseable or out of range: fall through to the uniform message
    }
    throw std::invalid_argument("--" + key + " expects a finite number, got '" +
                                it->second + "'");
}

std::uint64_t option_set::get_uint(const std::string& key, std::uint64_t fallback) const
{
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    consumed_[key] = true;
    const std::string& text = it->second;
    // std::stoull accepts "-1" (wrapping to 18446744073709551615) and
    // "1e3" parses as 1 with trailing junk — both must be hard errors here.
    const bool all_digits =
        !text.empty() && text.find_first_not_of("0123456789") == std::string::npos;
    if (all_digits) {
        try {
            std::size_t used = 0;
            const unsigned long long value = std::stoull(text, &used);
            if (used == text.size()) return value;
        } catch (const std::exception&) {
            // out of range: fall through to the uniform message
        }
    }
    throw std::invalid_argument("--" + key + " expects a non-negative integer, got '" +
                                text + "'");
}

std::string option_set::get_string(const std::string& key, const std::string& fallback) const
{
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    consumed_[key] = true;
    return it->second;
}

std::string option_set::get_value(const std::string& key, const std::string& fallback) const
{
    const std::string value = get_string(key, fallback);
    if (has(key) && value == "true") throw std::invalid_argument("--" + key + " needs a value");
    return value;
}

bool option_set::get_flag(const std::string& key) const
{
    if (!has(key)) return false;
    if (get_string(key, "") != "true") {
        throw std::invalid_argument("--" + key + " takes no value");
    }
    return true;
}

std::vector<std::string> option_set::unconsumed() const
{
    std::vector<std::string> leftover;
    for (const auto& [key, value] : values_) {
        if (consumed_.find(key) == consumed_.end()) leftover.push_back(key);
    }
    return leftover;
}

phy::modulation parse_modulation(const std::string& name)
{
    if (name == "bpsk") return phy::modulation::bpsk;
    if (name == "qpsk") return phy::modulation::qpsk;
    if (name == "8psk") return phy::modulation::psk8;
    if (name == "16psk") return phy::modulation::psk16;
    throw std::invalid_argument("unknown modulation '" + name +
                                "' (bpsk, qpsk, 8psk, 16psk)");
}

phy::fec_mode parse_fec(const std::string& name)
{
    if (name == "none") return phy::fec_mode::uncoded;
    if (name == "1/2") return phy::fec_mode::conv_half;
    if (name == "2/3") return phy::fec_mode::conv_two_thirds;
    if (name == "3/4") return phy::fec_mode::conv_three_quarters;
    throw std::invalid_argument("unknown FEC '" + name + "' (none, 1/2, 2/3, 3/4)");
}

} // namespace mmtag::cli
