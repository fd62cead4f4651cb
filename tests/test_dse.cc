#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>

#include "dse/search.h"
#include "fleet/portfolio.h"
#include "nn/builders.h"
#include "platform/fpga_spec.h"

namespace hdnn {
namespace {

TEST(DseCandidatesTest, AllCandidatesSatisfyConstraints) {
  for (const auto* spec : {&Vu9pSpec(), &PynqZ1Spec()}) {
    const DseEngine dse(*spec);
    const auto candidates = dse.EnumerateCandidates(DseOptions{});
    ASSERT_FALSE(candidates.empty()) << spec->name;
    for (const AccelConfig& cfg : candidates) {
      EXPECT_NO_THROW(cfg.Validate());
      EXPECT_GE(cfg.pi, cfg.po);  // Table 2: PI >= PO >= 1
      EXPECT_TRUE(cfg.pt == 4 || cfg.pt == 6);
      const auto impl =
          ImplementationResources(cfg, *spec, DefaultProfile());
      EXPECT_TRUE(FitsDeviceLimits(impl, *spec)) << cfg.ToString();
      EXPECT_TRUE(FitsPerDie(impl, cfg, *spec)) << cfg.ToString();
    }
  }
}

TEST(DseCandidatesTest, PynqHasFewerCandidatesThanVu9p) {
  const auto small =
      DseEngine(PynqZ1Spec()).EnumerateCandidates(DseOptions{});
  const auto big = DseEngine(Vu9pSpec()).EnumerateCandidates(DseOptions{});
  EXPECT_LT(small.size(), big.size());
}

TEST(DseExploreTest, Vu9pReproducesPaperDesignPoint) {
  // Paper Sec. 6.1: six instances with PI=4, PO=4, PT=6 on the VU9P.
  const DseEngine dse(Vu9pSpec());
  const DseResult r = dse.Explore(BuildVgg16ConvOnly());
  EXPECT_EQ(r.config.pi, 4);
  EXPECT_EQ(r.config.po, 4);
  EXPECT_EQ(r.config.pt, 6);
  EXPECT_EQ(r.config.ni, 6);
}

TEST(DseExploreTest, PynqReproducesPaperDesignPoint) {
  // Paper Sec. 6.1: one instance with PI=4, PO=4, PT=4 on the PYNQ-Z1.
  const DseEngine dse(PynqZ1Spec());
  const DseResult r = dse.Explore(BuildVgg16ConvOnly());
  EXPECT_EQ(r.config.pi, 4);
  EXPECT_EQ(r.config.po, 4);
  EXPECT_EQ(r.config.pt, 4);
  EXPECT_EQ(r.config.ni, 1);
}

TEST(DseExploreTest, Vgg16SelectsWinogradEverywhere) {
  // Paper Sec. 6.2: "the DSE selects all CONV layers of VGG16 to be
  // implemented in Winograd mode due to the sufficient memory bandwidth".
  for (const auto* spec : {&Vu9pSpec(), &PynqZ1Spec()}) {
    const DseResult r = DseEngine(*spec).Explore(BuildVgg16ConvOnly());
    for (const LayerMapping& m : r.mapping) {
      EXPECT_EQ(m.mode, ConvMode::kWinograd) << spec->name;
    }
  }
}

TEST(DseExploreTest, BandwidthStarvationFlipsToSpatial) {
  // Paper Sec. 6.2: "in other scenarios (e.g., IoT applications) where the
  // available memory bandwidth is limited ... Spatial CONV may outperform
  // Winograd."
  FpgaSpec iot = PynqZ1Spec();
  iot.dram_bandwidth_gbps = 0.08;
  const DseResult r = DseEngine(iot).Explore(BuildVgg16ConvOnly());
  int spatial = 0;
  for (const LayerMapping& m : r.mapping) {
    spatial += m.mode == ConvMode::kSpatial;
  }
  EXPECT_GT(spatial, 0) << "starved bandwidth should favour Spatial somewhere";
}

TEST(DseExploreTest, SpatialOnlyOptionDisablesWinograd) {
  DseOptions opts;
  opts.allow_winograd = false;
  const DseResult r = DseEngine(Vu9pSpec()).Explore(BuildVgg16ConvOnly(), opts);
  for (const LayerMapping& m : r.mapping) {
    EXPECT_EQ(m.mode, ConvMode::kSpatial);
  }
}

TEST(DseExploreTest, StridedLayersNeverWinograd) {
  const DseResult r = DseEngine(Vu9pSpec()).Explore(BuildAlexNetStyle());
  EXPECT_EQ(r.mapping[0].mode, ConvMode::kSpatial);  // conv1 stride 4
}

TEST(DseExploreTest, ObjectiveIsCyclesOverInstances) {
  const DseResult r = DseEngine(Vu9pSpec()).Explore(BuildTinyCnn());
  EXPECT_NEAR(r.objective, r.estimated_cycles / r.config.ni, 1e-6);
}

TEST(DseExploreTest, BestMappingMatchesPerLayerMinimum) {
  const Model m = BuildTinyCnn();
  const DseEngine dse(PynqZ1Spec());
  AccelConfig cfg;
  cfg.pi = cfg.po = 4;
  cfg.pt = 4;
  double total = 0;
  // The brute force below prices every layer unfused, so the fused-segment
  // pass (which beats per-layer minima by construction) must stay off.
  DseOptions opts;
  opts.fuse_segments = false;
  const auto mapping = dse.BestMapping(m, cfg, opts, &total);
  ASSERT_EQ(static_cast<int>(mapping.size()), m.num_layers());
  // Recompute each layer's best by brute force.
  double brute = 0;
  for (int i = 0; i < m.num_layers(); ++i) {
    double best = 1e300;
    for (ConvMode mode : {ConvMode::kSpatial, ConvMode::kWinograd}) {
      if (mode == ConvMode::kWinograd && !WinogradApplicable(m.layer(i))) {
        continue;
      }
      GroupCounts g;
      try {
        g = ComputeGroups(m.layer(i), m.InputOf(i), mode, cfg);
      } catch (const CapacityError&) {
        continue;
      }
      for (Dataflow flow :
           {Dataflow::kInputStationary, Dataflow::kWeightStationary}) {
        if (g.slices > 1 && flow != Dataflow::kInputStationary) continue;
        if (g.cb > 1 &&
            (flow != Dataflow::kWeightStationary || g.fmap_groups() != 1)) {
          continue;
        }
        best = std::min(best, EstimateLayerLatency(m.layer(i), m.InputOf(i),
                                                   mode, flow, cfg,
                                                   PynqZ1Spec())
                                  .total);
      }
    }
    brute += best;
  }
  EXPECT_NEAR(total, brute, brute * 1e-9);
}

TEST(DseOptionsTest, InvalidOptionsThrowInsteadOfEmptySearch) {
  const DseEngine dse(Vu9pSpec());
  const Model m = BuildTinyCnn();

  DseOptions bad_ni;
  bad_ni.max_ni = 0;
  EXPECT_THROW(dse.Explore(m, bad_ni), InvalidArgument);
  EXPECT_THROW(dse.EnumerateCandidates(bad_ni), InvalidArgument);

  DseOptions bad_pi;
  bad_pi.max_pi = -2;
  EXPECT_THROW(dse.Explore(m, bad_pi), InvalidArgument);
  EXPECT_THROW(dse.ExploreFrontier(m, bad_pi), InvalidArgument);

  DseOptions bad_tie;
  bad_tie.tie_fraction = -0.1;
  EXPECT_THROW(dse.Explore(m, bad_tie), InvalidArgument);

  // NI is enumerated one by one, so an unbounded max_ni is rejected up
  // front rather than walked for 2^31 iterations.
  DseOptions huge_ni;
  huge_ni.max_ni = std::numeric_limits<int>::max();
  EXPECT_THROW(dse.Explore(m, huge_ni), InvalidArgument);
  huge_ni.max_ni = DseOptions::kMaxNiCeiling + 1;
  EXPECT_THROW(dse.EnumerateCandidates(huge_ni), InvalidArgument);

  // A huge max_pi is legal: the broadcast cap PI*PT <= 32 bounds PI, so the
  // enumeration neither overflows nor differs from the default's.
  DseOptions huge_pi;
  huge_pi.max_pi = std::numeric_limits<int>::max();
  EXPECT_EQ(dse.EnumerateCandidates(huge_pi),
            dse.EnumerateCandidates(DseOptions{}));

  AccelConfig cfg;
  double cycles = 0;
  EXPECT_THROW(dse.BestMapping(m, cfg, bad_ni, &cycles), InvalidArgument);
}

TEST(DseOptionsTest, ValidOptionsPassValidation) {
  DseOptions opts;  // defaults
  EXPECT_NO_THROW(opts.Validate());
  opts.max_ni = 1;
  opts.max_pi = 1;
  opts.tie_fraction = 0;
  EXPECT_NO_THROW(opts.Validate());
  opts.max_ni = DseOptions::kMaxNiCeiling;
  EXPECT_NO_THROW(opts.Validate());
}

TEST(DseExploreTest, InfeasibleModelThrows) {
  // A model whose minimal working set exceeds any candidate's buffers.
  Model m("monster", FmapShape{4, 1000, 1000});
  ConvLayer l;
  l.name = "wide";
  l.in_channels = 4;
  l.out_channels = 4;
  l.pool = 1;
  m.Append(l);
  FpgaSpec tiny = PynqZ1Spec();
  tiny.bram18 = 16;
  tiny.luts = 2000;
  tiny.dsps = 40;
  EXPECT_THROW(DseEngine(tiny).Explore(m), Error);
}

// --- golden pins: the DSE's exact answers ---
//
// FNV-1a digests of whole DseFrontier results (every Pareto point and the
// legacy best) and of a fleet candidate set, captured from the search and
// pinned so a restructuring of enumeration, scoring or frontier
// construction has to reproduce every decision and every double bit for
// bit. A moved digest means the search now answers differently.

class Digest {
 public:
  void U64(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (v >> (8 * b)) & 0xffu;
      h_ *= 1099511628211ull;
    }
  }
  void Int(std::int64_t v) { U64(static_cast<std::uint64_t>(v)); }
  void Double(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    U64(bits);
  }
  void Config(const AccelConfig& c) {
    for (int v : {c.pi, c.po, c.pt, c.ni, c.data_width, c.wgt_width,
                  c.input_buffer_vectors, c.weight_buffer_vectors,
                  c.output_buffer_vectors}) {
      Int(v);
    }
  }
  void Mapping(const std::vector<LayerMapping>& mapping) {
    U64(mapping.size());
    for (const LayerMapping& m : mapping) {
      Int(static_cast<int>(m.mode));
      Int(static_cast<int>(m.dataflow));
      Int(m.fuse_output ? 1 : 0);
    }
  }
  void Resources(const ResourceEstimate& r) {
    Double(r.luts);
    Double(r.dsps);
    Double(r.bram18);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

std::uint64_t FrontierDigest(const DseFrontier& f) {
  Digest d;
  d.U64(f.points.size());
  for (const ParetoPoint& p : f.points) {
    d.Config(p.config);
    d.Mapping(p.mapping);
    d.Double(p.estimated_cycles);
    d.Double(p.objective);
    d.Resources(p.analytical);
    d.Resources(p.implementation);
    d.Double(p.lut_utilization);
    d.Double(p.dsp_utilization);
    d.Double(p.bram_utilization);
    d.Double(p.power_watts);
    d.Double(p.qps);
    d.Double(p.qps_per_watt);
  }
  const DseResult& b = f.best;
  d.Config(b.config);
  d.Mapping(b.mapping);
  d.Double(b.estimated_cycles);
  d.Double(b.objective);
  d.Resources(b.analytical);
  d.Resources(b.implementation);
  d.Double(b.power_watts);
  d.Int(b.candidates_evaluated);
  d.Int(f.candidates_evaluated);
  return d.value();
}

Model BuildGoldenModel(const std::string& name) {
  if (name == "tiny_cnn") return BuildTinyCnn();
  if (name == "vgg16_conv") return BuildVgg16ConvOnly();
  if (name == "vgg16") return BuildVgg16();
  if (name == "resnet18") return BuildResNet18();
  if (name == "resnet18_style") return BuildResNet18Style();
  return BuildTinyResNetBlock();  // "tiny_resnet_block"
}

DseOptions GoldenOptions(const std::string& variant) {
  DseOptions opts;
  if (variant == "no_winograd") opts.allow_winograd = false;
  if (variant == "unfused") opts.fuse_segments = false;
  return opts;
}

struct GoldenCase {
  const char* model;
  const char* platform;  ///< "VU9P" or "PYNQ-Z1"
  const char* variant;   ///< "default", "no_winograd" or "unfused"
  std::uint64_t digest;
};

constexpr GoldenCase kGoldenFrontiers[] = {
    {"tiny_cnn", "VU9P", "default", 0x98dd9e1c572bdef3ull},
    {"tiny_cnn", "VU9P", "no_winograd", 0x827ec5b439ce3521ull},
    {"tiny_cnn", "VU9P", "unfused", 0x8963b754ed24ed46ull},
    {"tiny_cnn", "PYNQ-Z1", "default", 0x3d2a565a2d380731ull},
    {"tiny_cnn", "PYNQ-Z1", "no_winograd", 0xd99de622312dc26dull},
    {"tiny_cnn", "PYNQ-Z1", "unfused", 0x1942d025e7d8b2cdull},
    {"vgg16_conv", "VU9P", "default", 0x6060938e3e2c39a2ull},
    {"vgg16_conv", "VU9P", "no_winograd", 0x673eb41c3fd60e35ull},
    {"vgg16_conv", "VU9P", "unfused", 0x855d89703b1b7c49ull},
    {"vgg16_conv", "PYNQ-Z1", "default", 0xedb029b16848e62eull},
    {"vgg16_conv", "PYNQ-Z1", "no_winograd", 0xe2facf4f0b486bc7ull},
    {"vgg16_conv", "PYNQ-Z1", "unfused", 0xedb029b16848e62eull},
    {"vgg16", "VU9P", "default", 0x548ce6a71606fe23ull},
    {"vgg16", "VU9P", "no_winograd", 0xf5e42e2b918f0ba8ull},
    {"vgg16", "VU9P", "unfused", 0x6d5e7c7fedcc9be9ull},
    {"vgg16", "PYNQ-Z1", "default", 0xa98da23b7048e343ull},
    {"vgg16", "PYNQ-Z1", "no_winograd", 0xaf9029923b8e1f0aull},
    {"vgg16", "PYNQ-Z1", "unfused", 0xae5c5a2226ba49b0ull},
    {"resnet18", "VU9P", "default", 0x8d69534cdbd0cc80ull},
    {"resnet18", "VU9P", "no_winograd", 0x35ae5649b944d95full},
    {"resnet18", "VU9P", "unfused", 0x5a69a87d2d8edd2eull},
    {"resnet18", "PYNQ-Z1", "default", 0x4419a53117658a6cull},
    {"resnet18", "PYNQ-Z1", "no_winograd", 0xe2803a5297d50836ull},
    {"resnet18", "PYNQ-Z1", "unfused", 0x16efa1b805c76b3bull},
    {"resnet18_style", "VU9P", "default", 0x65827986147db863ull},
    {"resnet18_style", "VU9P", "no_winograd", 0xfe0225a4b25517c4ull},
    {"resnet18_style", "VU9P", "unfused", 0x649c5b07ef71ab26ull},
    {"resnet18_style", "PYNQ-Z1", "default", 0x8c23bfee42d8352bull},
    {"resnet18_style", "PYNQ-Z1", "no_winograd", 0xcef69864f50a8adfull},
    {"resnet18_style", "PYNQ-Z1", "unfused", 0x3804998304dd4febull},
    {"tiny_resnet_block", "VU9P", "default", 0xf96e535442290caaull},
    {"tiny_resnet_block", "VU9P", "no_winograd", 0x9b3860d7fbf78d04ull},
    {"tiny_resnet_block", "VU9P", "unfused", 0xd6c7884f0d960d8eull},
    {"tiny_resnet_block", "PYNQ-Z1", "default", 0xbc13893482ab80b6ull},
    {"tiny_resnet_block", "PYNQ-Z1", "no_winograd", 0x4b791deee93e3641ull},
    {"tiny_resnet_block", "PYNQ-Z1", "unfused", 0x5b54fbc3f8aa0f58ull},
};

TEST(DseGoldenTest, FrontiersMatchPinnedDigests) {
  for (const GoldenCase& c : kGoldenFrontiers) {
    const Model model = BuildGoldenModel(c.model);
    const FpgaSpec& spec =
        std::string(c.platform) == "VU9P" ? Vu9pSpec() : PynqZ1Spec();
    const DseFrontier f =
        DseEngine(spec).ExploreFrontier(model, GoldenOptions(c.variant));
    EXPECT_EQ(FrontierDigest(f), c.digest)
        << c.model << " on " << c.platform << " (" << c.variant
        << "): got 0x" << std::hex << FrontierDigest(f);
  }
}

TEST(DseGoldenTest, FleetBoardCandidatesMatchPinnedDigest) {
  // The fleet_qps bench's candidate set: TinyCnn + TinyResidualBlock over
  // both paper platforms. BuildBoardCandidates re-queries one engine per
  // platform (frontier, then BestMapping per config and model).
  const Model tiny = BuildTinyCnn();
  const Model resid = BuildTinyResidualBlock();
  const std::vector<BoardCandidate> cands =
      BuildBoardCandidates({&Vu9pSpec(), &PynqZ1Spec()}, {&tiny, &resid});
  Digest d;
  d.U64(cands.size());
  for (const BoardCandidate& c : cands) {
    for (char ch : c.spec.name) d.Int(ch);
    d.Config(c.config);
    d.Resources(c.implementation);
    d.Double(c.power_watts);
    d.U64(c.mappings.size());
    for (const auto& mapping : c.mappings) d.Mapping(mapping);
    for (double s : c.item_seconds) d.Double(s);
    for (double q : c.board_qps) d.Double(q);
  }
  EXPECT_EQ(d.value(), 0xb9a9c69f91680911ull) << "got 0x" << std::hex << d.value();
}

}  // namespace
}  // namespace hdnn
