/**
 * @file
 * SIMD kernel-layer microbenchmark: per-tier throughput of the three
 * hot kernels the batched inference path is built on — the batched
 * fixed-point GEMM (the int32 path, and the int16 madd path per shape:
 * an inDim that is a multiple of 16 and one that is not, each at a
 * 60-image batch and at one image), the fused mu + sigma * eps weight
 * draw, the double->fixed eps conversion and the RLF eps kernel. Every
 * tier compiled into the binary and supported by this CPU gets a row,
 * with the dispatch-selected tier marked; all tiers are ctest-pinned
 * bit-exact, so the only difference between rows is speed. Rates are
 * GMAC/s for the GEMMs and millions of elements per second (*_mps) for
 * the rest. VIBNN_BENCH_JSON=<path> records both tables
 * machine-readably (sections "kernels" and "gemm_s16").
 */

#include <string>
#include <vector>

#include "bench_util.hh"
#include "accel/kernels/kernels.hh"
#include "common/rng.hh"
#include "common/table.hh"
#include "fixed/fixed_point.hh"

using namespace vibnn;
namespace k = vibnn::accel::kernels;

namespace
{

std::vector<std::int32_t>
randomRaws(const fixed::FixedPointFormat &fmt, std::uint64_t seed,
           std::size_t count)
{
    Rng rng(seed);
    const auto lo = fmt.rawMin();
    const auto span =
        static_cast<std::uint64_t>(fmt.rawMax() - fmt.rawMin() + 1);
    std::vector<std::int32_t> raws(count);
    for (auto &r : raws)
        r = static_cast<std::int32_t>(
            lo + static_cast<std::int64_t>(rng.uniformInt(span)));
    return raws;
}

/** Run body() until ~0.15 s have elapsed; returns iterations/second. */
template <typename Body>
double
rate(const Body &body)
{
    body(); // warm
    std::size_t iters = 0;
    bench::Stopwatch clock;
    double elapsed = 0.0;
    do {
        body();
        ++iters;
        elapsed = clock.seconds();
    } while (elapsed < 0.15);
    return static_cast<double>(iters) / elapsed;
}

struct GemmShape
{
    std::size_t inDim, outDim, images;
};

/** One GEMM problem with random operands on the given grids, packed
 *  to int16 as well, with exact-size (unpadded) rows. */
struct GemmCase
{
    GemmShape shape;
    std::vector<std::int32_t> weights, acts, bias, out;
    std::vector<std::int16_t> w16, a16;
    k::GemmArgs args;

    GemmCase(const GemmShape &s, const fixed::FixedPointFormat &act,
             const fixed::FixedPointFormat &weight)
        : shape(s), weights(randomRaws(weight, 1, s.outDim * s.inDim)),
          acts(randomRaws(act, 2, s.images * s.inDim)),
          bias(randomRaws(weight, 3, s.outDim)),
          out(s.images * s.outDim), w16(weights.size()),
          a16(acts.size())
    {
        k::scalarKernels().packInt16(weights.data(), w16.data(),
                                     weights.size());
        k::scalarKernels().packInt16(acts.data(), a16.data(),
                                     acts.size());
        args.ldw = s.inDim;
        args.lda = s.inDim;
        args.outNeuronStride = 1;
        args.outImageStride = s.outDim;
        args.inDim = s.inDim;
        args.outDim = s.outDim;
        args.images = s.images;
        args.finish.biasShift = act.fracBits();
        args.finish.outShift = weight.fracBits();
        args.finish.outMin = static_cast<std::int32_t>(act.rawMin());
        args.finish.outMax = static_cast<std::int32_t>(act.rawMax());
    }

    /** GMAC/s of `tier`, with (use16) or without the int16 copies. */
    double
    gmacs(const k::KernelOps &tier, bool use16)
    {
        args.weights = weights.data();
        args.acts = acts.data();
        args.bias = bias.data();
        args.out = out.data();
        args.weights16 = use16 ? w16.data() : nullptr;
        args.acts16 = use16 ? a16.data() : nullptr;
        const double macs = static_cast<double>(shape.inDim) *
            shape.outDim * shape.images;
        return rate([&] { tier.gemmBatch(args); }) * macs / 1e9;
    }

    std::string
    label() const
    {
        return strfmt("%zux%zu", shape.inDim, shape.outDim);
    }
};

} // namespace

int
main()
{
    bench::banner("SIMD kernels",
                  "Per-tier throughput of the batched-path hot loops "
                  "(GEMM, fused weight sampling, eps conversion)");
    std::printf("dispatch-selected tier: %s "
                "(VIBNN_KERNELS override)\n\n",
                k::activeKernelName());

    const fixed::FixedPointFormat act{8, 4}, weight{8, 6}, eps{8, 5};
    GemmCase s32({784, 200, 60}, act, weight);
    // s16 madd shapes: the first (dominant) Dense op of the Table 5
    // MNIST network, 784 inputs x 200 neurons, and the 200 x 200
    // hidden op, whose inDim is not a multiple of 16 and so runs the
    // masked tail on every row; each over a 60-image batch and a
    // single image (the online B = 1 case).
    const GemmShape s16_shapes[] = {
        {784, 200, 60}, {200, 200, 60}, {784, 200, 1}, {200, 200, 1}};
    std::vector<GemmCase> s16;
    for (const auto &shape : s16_shapes)
        s16.emplace_back(shape, act, weight);

    // Fused sampling + conversion shapes: one 64K block per call.
    const std::size_t n = 1 << 16;
    const auto mu = randomRaws(weight, 4, n);
    const auto sigma = randomRaws(weight, 5, n);
    const auto eps_raw = randomRaws(eps, 6, n);
    std::vector<std::int32_t> sampled(n);
    k::SampleParams sp;
    sp.epsShift = eps.fracBits();
    sp.wMin = static_cast<std::int32_t>(weight.rawMin());
    sp.wMax = static_cast<std::int32_t>(weight.rawMax());
    sp.sigmaAbsMax = -weight.rawMin();
    sp.epsAbsMax = -eps.rawMin();

    Rng real_rng(7);
    std::vector<double> reals(n);
    for (auto &v : reals)
        v = real_rng.gaussian();
    std::vector<std::int32_t> converted(n);

    // Eps generation: the transposed RLF cycle kernel (paper shape,
    // 255 x 8 lanes), counts per second == eps per second.
    const std::size_t rlf_cycles = 512;
    std::vector<std::uint8_t> rlf_planes(255, 0);
    std::vector<std::int32_t> rlf_sums(8, 0);
    {
        Rng seeder(11);
        for (int lane = 0; lane < 8; ++lane) {
            for (int p = 0; p < 255; ++p)
                if (seeder.next() & 1) {
                    rlf_planes[p] |=
                        static_cast<std::uint8_t>(1u << lane);
                    ++rlf_sums[lane];
                }
        }
    }
    std::vector<std::int32_t> rlf_counts(rlf_cycles * 8);

    bench::JsonReport report;
    TextTable table;
    table.setHeader({"tier", "GEMM s32 GMAC/s", "sample M/s",
                     "eps conv M/s", "rlf eps M/s"});
    TextTable s16_table;
    std::vector<std::string> s16_header = {"tier"};
    for (const auto &c : s16)
        s16_header.push_back(
            strfmt("%s b%zu", c.label().c_str(), c.shape.images));
    s16_table.setHeader(s16_header);
    for (const auto *tier : k::availableKernels()) {
        const double gemm32 = s32.gmacs(*tier, /*use16=*/false);
        const double sample = rate([&] {
            tier->sampleWeights(mu.data(), sigma.data(), eps_raw.data(),
                                sampled.data(), n, sp);
        }) * static_cast<double>(n) / 1e6;
        const double conv = rate([&] {
            tier->quantizeDouble(reals.data(), converted.data(), n,
                                 eps.fracBits(),
                                 static_cast<std::int32_t>(eps.rawMin()),
                                 static_cast<std::int32_t>(eps.rawMax()));
        }) * static_cast<double>(n) / 1e6;
        const double rlf_eps = rate([&] {
            k::RlfState st;
            st.planes = rlf_planes.data();
            st.sums = rlf_sums.data();
            st.length = 255;
            st.groups = 1;
            st.head = 0;
            tier->rlfCycleCounts(st, rlf_cycles, rlf_counts.data());
        }) * static_cast<double>(rlf_cycles * 8) / 1e6;

        const bool active =
            std::string(tier->name) == k::activeKernelName();
        const std::string tier_label =
            std::string(tier->name) + (active ? " *" : "");
        table.addRow({tier_label, strfmt("%.2f", gemm32),
                      strfmt("%.1f", sample), strfmt("%.1f", conv),
                      strfmt("%.1f", rlf_eps)});
        report.add(bench::JsonRecord()
                       .field("bench", "kernels")
                       .field("section", "kernels")
                       .field("tier", tier->name)
                       .field("active", active ? 1 : 0)
                       .field("gemm_s32_gmacs", gemm32)
                       .field("sample_mps", sample)
                       .field("eps_conv_mps", conv)
                       .field("rlf_eps_mps", rlf_eps));

        std::vector<std::string> s16_row = {tier_label};
        for (auto &c : s16) {
            const double gemm16 = c.gmacs(*tier, /*use16=*/true);
            s16_row.push_back(strfmt("%.2f", gemm16));
            report.add(bench::JsonRecord()
                           .field("bench", "kernels")
                           .field("section", "gemm_s16")
                           .field("tier", tier->name)
                           .field("active", active ? 1 : 0)
                           .field("shape", c.label())
                           .field("batch", c.shape.images)
                           .field("gemm_s16_gmacs", gemm16));
        }
        s16_table.addRow(s16_row);
    }
    std::printf("GEMM s32 shape: %s over %zu images, unpadded rows\n",
                s32.label().c_str(), s32.shape.images);
    table.print();
    std::printf("\nGEMM s16 (int16 madd) GMAC/s by shape "
                "(inDim x outDim, batch), unpadded rows:\n");
    s16_table.print();
    std::printf("\n(* = dispatch-selected; the s16 table falls back to "
                "the s32 path on tiers without a madd kernel)\n");
    report.write();
    return 0;
}
