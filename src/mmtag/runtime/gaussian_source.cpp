#include "mmtag/runtime/gaussian_source.hpp"

#include <cmath>

namespace mmtag::runtime {

namespace detail {

// Generated by scripts/gen_ziggurat_tables.py; do not edit by hand.
// x[i]: right edge of layer i; x[128] = 0.
const std::array<double, 129> ziggurat_x{
    0x1.db4668fe7e49dp+1, 0x1.b8a7c476d2be8p+1, 0x1.9c8e0c7c8098fp+1,
    0x1.8aa73e440ffbbp+1, 0x1.7d45eb36eb841p+1, 0x1.7279dd4ac3f9dp+1,
    0x1.695c2be68edc9p+1, 0x1.616dff7c8f54ap+1, 0x1.5a61edf7e8f32p+1,
    0x1.54052012a04a4p+1, 0x1.4e3456b0e3a1bp+1, 0x1.48d61806d600fp+1,
    0x1.43d75b60bca1dp+1, 0x1.3f29848d3b416p+1, 0x1.3ac11b8e206d6p+1,
    0x1.3694f3a3740d9p+1, 0x1.329d9725e32f7p+1, 0x1.2ed4df8099571p+1,
    0x1.2b35aa5ebee3ep+1, 0x1.27bba2b5dbc92p+1, 0x1.246317a6b53c0p+1,
    0x1.2128dd36bdf08p+1, 0x1.1e0a342cf08f5p+1, 0x1.1b04b731f6bcbp+1,
    0x1.18164be0c1c37p+1, 0x1.153d16d45743cp+1, 0x1.12777201834f2p+1,
    0x1.0fc3e4d95f277p+1, 0x1.0d211dd28b00dp+1, 0x1.0a8ded0ec3719p+1,
    0x1.08093fe3e40e0p+1, 0x1.05921d1c4d768p+1, 0x1.0327a1cc4cf5cp+1,
    0x1.00c8fea1720d2p+1, 0x1.fceaeb2ca5f12p+0, 0x1.f858aff31cbebp+0,
    0x1.f3da09746081ep+0, 0x1.ef6dcddc7d38dp+0, 0x1.eb12e91486bb7p+0,
    0x1.e6c85a849b011p+0, 0x1.e28d331c67237p+0, 0x1.de609397e09b4p+0,
    0x1.da41aaf79a33ep+0, 0x1.d62fb52580b80p+0, 0x1.d229f9bfeefd5p+0,
    0x1.ce2fcb05f8c2ep+0, 0x1.ca4084e091e2ep+0, 0x1.c65b8c04dbabcp+0,
    0x1.c2804d2c6b16ap+0, 0x1.beae3c60cd0dep+0, 0x1.bae4d457ee113p+0,
    0x1.b72395df5b735p+0, 0x1.b36a075498d5ep+0, 0x1.afb7b428fe79bp+0,
    0x1.ac0c2c6fc637dp+0, 0x1.a867047516e4ap+0, 0x1.a4c7d45d01a2cp+0,
    0x1.a12e37c983364p+0, 0x1.9d99cd86b58aep+0, 0x1.9a0a373c73f1ap+0,
    0x1.967f1924c7affp+0, 0x1.92f819c682beep+0, 0x1.8f74e1b37c6b1p+0,
    0x1.8bf51b49ef330p+0, 0x1.887872788109fp+0, 0x1.84fe9484873b1p+0,
    0x1.81872fd21db6cp+0, 0x1.7e11f3adaeb8bp+0, 0x1.7a9e90168b8e7p+0,
    0x1.772cb58a39dcdp+0, 0x1.73bc14d01a2c0p+0, 0x1.704c5ec50cb78p+0,
    0x1.6cdd4426b889cp+0, 0x1.696e755e16b7bp+0, 0x1.65ffa248e0164p+0,
    0x1.62907a0176eb6p+0, 0x1.5f20aaa4dfc11p+0, 0x1.5bafe1165480dp+0,
    0x1.583dc8bff320fp+0, 0x1.54ca0b4ffd33fp+0, 0x1.515450720f44bp+0,
    0x1.4ddc3d83a5b7ap+0, 0x1.4a617543306c3p+0, 0x1.46e39778de059p+0,
    0x1.436240982ad93p+0, 0x1.3fdd09591d29bp+0, 0x1.3c538647ef788p+0,
    0x1.38c54749b9029p+0, 0x1.3531d7146a433p+0, 0x1.3198ba982d906p+0,
    0x1.2df97057e7ef0p+0, 0x1.2a536fae30e28p+0, 0x1.26a627fb9d115p+0,
    0x1.22f0ffbaa1e4ap+0, 0x1.1f335374a10edp+0, 0x1.1b6c7492c972bp+0,
    0x1.179ba80463fe2p+0, 0x1.13c024b2c7ebbp+0, 0x1.0fd911b97f22ap+0,
    0x1.0be58456ff4a1p+0, 0x1.07e47d87a40e9p+0, 0x1.03d4e7391c5a9p+0,
    0x1.ff6b21fffe2fdp-1, 0x1.f70a5866c8f29p-1, 0x1.ee848e9568251p-1,
    0x1.e5d6909f51b4bp-1, 0x1.dcfccc51c59d0p-1, 0x1.d3f340dda60fcp-1,
    0x1.cab56ac6a38b2p-1, 0x1.c13e2b014e83ap-1, 0x1.b787a7c516f17p-1,
    0x1.ad8b2506a1358p-1, 0x1.a340d1baf5af2p-1, 0x1.989f85c753b05p-1,
    0x1.8d9c6a9d35e15p-1, 0x1.822a858af0e54p-1, 0x1.763a1600eec49p-1,
    0x1.69b7b213f3f3cp-1, 0x1.5c8afdbf0214cp-1, 0x1.4e94c08c0ba85p-1,
    0x1.3fabee1911ca1p-1, 0x1.2f98d6bb4f3e5p-1, 0x1.1e0ce6b596975p-1,
    0x1.0a936da5e5567p-1, 0x1.e8e576e43fb4ep-2, 0x1.b4c8fece48dc1p-2,
    0x1.73949184db8e3p-2, 0x1.16db47e193c8ep-2, 0x0.0p+0,
};

// f[i] = exp(-x[i]^2 / 2).
const std::array<double, 129> ziggurat_f{
    0x1.09e80c5ba8b92p-10, 0x1.5de9e33726f26p-9, 0x1.6ba8b0ffb6282p-8,
    0x1.1a9b6b3fc193bp-7, 0x1.83f4bed1933a0p-7, 0x1.f100847645168p-7,
    0x1.309cee4e09983p-6, 0x1.6a23fa9d5f276p-6, 0x1.a4f57a25d9cc1p-6,
    0x1.e0f951d57e237p-6, 0x1.0f0e539c89b78p-5, 0x1.2e282b724adafp-5,
    0x1.4dc3fcbd99703p-5, 0x1.6ddc9dd1fe24ap-5, 0x1.8e6db483bc1bcp-5,
    0x1.af738c17a5017p-5, 0x1.d0eaf63395869p-5, 0x1.f2d13368bd129p-5,
    0x1.0a91f09183c32p-4, 0x1.1bf075c20a9ffp-4, 0x1.2d8341133a33dp-4,
    0x1.3f4987896ad70p-4, 0x1.514297b239a64p-4, 0x1.636dd69e8c21ap-4,
    0x1.75cabd60e5dc5p-4, 0x1.8858d6f54ff37p-4, 0x1.9b17be7e63ef5p-4,
    0x1.ae071dc7af298p-4, 0x1.c126ac011776dp-4, 0x1.d4762ca983a64p-4,
    0x1.e7f56ea105fc7p-4, 0x1.fba44b5c4de98p-4, 0x1.07c1531a2b4a3p-3,
    0x1.11c835e71b732p-3, 0x1.1be6c8cbda97ap-3, 0x1.261d0aaaebe7dp-3,
    0x1.306afe619314fp-3, 0x1.3ad0aa9dd7fafp-3, 0x1.454e19baa0e7dp-3,
    0x1.4fe359a13823ep-3, 0x1.5a907baface6cp-3, 0x1.655594a396d62p-3,
    0x1.7032bc88d6779p-3, 0x1.7b280eabfd4c9p-3, 0x1.8635a99016384p-3,
    0x1.915baee792c01p-3, 0x1.9c9a43902c104p-3, 0x1.a7f18f918fb6dp-3,
    0x1.b361be1eb802cp-3, 0x1.beeafd99d7120p-3, 0x1.ca8d7f9ac2033p-3,
    0x1.d64978f7cf9e8p-3, 0x1.e21f21d123340p-3, 0x1.ee0eb59e61874p-3,
    0x1.fa18733ed279ap-3, 0x1.031e4e85fb6a9p-2, 0x1.093dbc774f1a9p-2,
    0x1.0f6aa83b46d00p-2, 0x1.15a5387a6603fp-2, 0x1.1bed95cc5752bp-2,
    0x1.2243eac7e2074p-2, 0x1.28a864146108bp-2, 0x1.2f1b307ccfea7p-2,
    0x1.359c810485cc4p-2, 0x1.3c2c88fdb8dddp-2, 0x1.42cb7e21e8c60p-2,
    0x1.497998ac51eaep-2, 0x1.503713768fb4cp-2, 0x1.57042c17986e6p-2,
    0x1.5de12305426f8p-2, 0x1.64ce3bb887d9bp-2, 0x1.6bcbbcd4c4736p-2,
    0x1.72d9f05230378p-2, 0x1.79f923abe1188p-2, 0x1.8129a811a7664p-2,
    0x1.886bd29e2263bp-2, 0x1.8fbffc9176160p-2, 0x1.97268391186ccp-2,
    0x1.9e9fc9ed3ad1fp-2, 0x1.a62c36ec664f0p-2, 0x1.adcc371df417bp-2,
    0x1.b5803cb422f33p-2, 0x1.bd48bfe6a41f4p-2, 0x1.c5263f5e989d7p-2,
    0x1.cd1940ad1b156p-2, 0x1.d52250cd9b95ep-2, 0x1.dd4204b582995p-2,
    0x1.e578f9f2c9384p-2, 0x1.edc7d75b7711fp-2, 0x1.f62f4dd0454b7p-2,
    0x1.feb0191503b20p-2, 0x1.03a58060e6689p-1, 0x1.08006ca84ddedp-1,
    0x1.0c6942a5bbcb2p-1, 0x1.10e07b5015e5ep-1, 0x1.1566980fb8bb8p-1,
    0x1.19fc239747fb8p-1, 0x1.1ea1b2d9efcc3p-1, 0x1.2357e62428f98p-1,
    0x1.281f6a5d2447ap-1, 0x1.2cf8fa78591c5p-1, 0x1.31e5612065d0dp-1,
    0x1.36e57aa698273p-1, 0x1.3bfa37453879ap-1, 0x1.41249dc646457p-1,
    0x1.4665cea500fc5p-1, 0x1.4bbf07c6c2190p-1, 0x1.5131a8efe618cp-1,
    0x1.56bf39249a24ap-1, 0x1.5c696d348e895p-1, 0x1.62322fc593a6ep-1,
    0x1.681bab4ebdc2dp-1, 0x1.6e2856a006c2ap-1, 0x1.745b04d027f33p-1,
    0x1.7ab6f9c656c2bp-1, 0x1.814005219cc85p-1, 0x1.87faa61a739fep-1,
    0x1.8eec3c5bbfb4dp-1, 0x1.961b4c1afe594p-1, 0x1.9d8fdfaec7c04p-1,
    0x1.a55418110d2bap-1, 0x1.ad750b7255a35p-1, 0x1.b6042cf903cd3p-1,
    0x1.bf19b6810e622p-1, 0x1.c8d923f9e0690p-1, 0x1.d37a74ffb7e65p-1,
    0x1.df6071934c0c1p-1, 0x1.ed5cf060d53efp-1, 0x1.0000000000000p+0,
};

} // namespace detail

double gaussian_source::normal_slow(unsigned layer, double x, bool negative)
{
    if (layer == 0) {
        // Tail beyond R = ziggurat_x[1] (Marsaglia 1964): exponential
        // proposals accepted with probability exp(-t^2 / 2).
        const double r = detail::ziggurat_x[1];
        double t = 0.0;
        double e = 0.0;
        do {
            t = -std::log(open_unit()) / r;
            e = -std::log(open_unit());
        } while (e + e < t * t);
        x = r + t;
    } else {
        // Wedge: x lies in layer `layer` beyond the next layer's edge; accept
        // it when a uniform height within the layer falls under the density.
        const double bottom = detail::ziggurat_f[layer];
        const double top = detail::ziggurat_f[layer + 1];
        if (!(bottom + open_unit() * (top - bottom) < std::exp(-0.5 * x * x))) return normal();
    }
    return negative ? -x : x;
}

} // namespace mmtag::runtime
