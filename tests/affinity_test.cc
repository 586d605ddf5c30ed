#include "goggles/affinity.h"

#include <cmath>
#include <cstdint>
#include <cstring>

#include <gtest/gtest.h>

#include "data/raster.h"
#include "goggles/pipeline.h"
#include "nn/vgg.h"
#include "tensor/gemm.h"
#include "util/rng.h"

namespace goggles {
namespace {

data::Image PatternImage(int variant) {
  data::Image img(3, 32, 32, 0.1f);
  switch (variant % 3) {
    case 0:
      data::DrawFilledCircle(&img, 16, 16, 8, {1.0f, 0.2f, 0.2f});
      break;
    case 1:
      data::DrawFilledRect(&img, 8, 8, 24, 24, {0.2f, 1.0f, 0.2f});
      break;
    default:
      data::DrawCross(&img, 16, 16, 16, 3, {0.2f, 0.2f, 1.0f});
      break;
  }
  return img;
}

std::shared_ptr<features::FeatureExtractor> MakeExtractor() {
  nn::VggMiniConfig config;
  config.stage_channels = {4, 8, 8, 8, 8};
  config.num_classes = 4;
  Result<nn::VggMini> model = nn::BuildVggMini(config);
  model.status().Abort("vgg");
  return std::make_shared<features::FeatureExtractor>(std::move(*model));
}

class AffinityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    extractor_ = MakeExtractor();
    for (int i = 0; i < 6; ++i) images_.push_back(PatternImage(i));
  }
  std::shared_ptr<features::FeatureExtractor> extractor_;
  std::vector<data::Image> images_;
};

TEST_F(AffinityTest, LibraryHasLayersTimesZFunctions) {
  AffinityLibrary library = BuildPrototypeAffinityLibrary(extractor_, 10);
  EXPECT_EQ(library.functions.size(), 50u);  // 5 layers x Z=10
  AffinityLibrary small = BuildPrototypeAffinityLibrary(extractor_, 3);
  EXPECT_EQ(small.functions.size(), 15u);
}

TEST_F(AffinityTest, RoundRobinOrderingSpansLayersFirst) {
  AffinityLibrary library = BuildPrototypeAffinityLibrary(extractor_, 2);
  // First 5 functions are z=0 of layers 1..5.
  EXPECT_EQ(library.functions[0]->name(), "proto[L1,z0]");
  EXPECT_EQ(library.functions[1]->name(), "proto[L2,z0]");
  EXPECT_EQ(library.functions[4]->name(), "proto[L5,z0]");
  EXPECT_EQ(library.functions[5]->name(), "proto[L1,z1]");
}

TEST_F(AffinityTest, ScoresAreBoundedCosines) {
  AffinityLibrary library = BuildPrototypeAffinityLibrary(extractor_, 4);
  for (auto& f : library.functions) {
    ASSERT_TRUE(f->Prepare(images_).ok());
  }
  for (auto& f : library.functions) {
    for (int i = 0; i < 6; ++i) {
      for (int j = 0; j < 6; ++j) {
        const float s = f->Score(i, j);
        ASSERT_GE(s, -1.0f - 1e-5f);
        ASSERT_LE(s, 1.0f + 1e-5f);
      }
    }
  }
}

TEST_F(AffinityTest, SelfAffinityIsMaximal) {
  // Eq. 2 with i == j: the prototype of x_j exists among x_j's own position
  // vectors, so the max cosine is exactly 1.
  AffinityLibrary library = BuildPrototypeAffinityLibrary(extractor_, 4);
  for (auto& f : library.functions) {
    ASSERT_TRUE(f->Prepare(images_).ok());
  }
  for (auto& f : library.functions) {
    for (int i = 0; i < 6; ++i) {
      EXPECT_NEAR(f->Score(i, i), 1.0f, 1e-4f);
    }
  }
}

TEST_F(AffinityTest, SameConceptScoresHigherThanDifferent) {
  // Images 0 and 3 share the circle concept; image 1 is a square.
  AffinityLibrary library = BuildPrototypeAffinityLibrary(extractor_, 10);
  for (auto& f : library.functions) {
    ASSERT_TRUE(f->Prepare(images_).ok());
  }
  double same = 0.0, diff = 0.0;
  for (auto& f : library.functions) {
    same += f->Score(0, 3);
    diff += f->Score(1, 3);
  }
  EXPECT_GT(same, diff);
}

TEST_F(AffinityTest, MatrixLayoutMatchesPaperSection22) {
  AffinityLibrary library = BuildPrototypeAffinityLibrary(extractor_, 2);
  std::vector<AffinityFunction*> fns = library.Pointers();
  for (auto* f : fns) ASSERT_TRUE(f->Prepare(images_).ok());
  const int n = static_cast<int>(images_.size());
  Result<Matrix> a = BuildAffinityMatrix(fns, n);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->rows(), n);
  EXPECT_EQ(a->cols(), static_cast<int64_t>(fns.size()) * n);
  // A[i, f*N + j] == f(x_i, x_j).
  for (size_t f = 0; f < fns.size(); ++f) {
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        ASSERT_NEAR((*a)(i, static_cast<int64_t>(f) * n + j),
                    static_cast<double>(fns[f]->Score(i, j)), 1e-6);
      }
    }
  }
}

TEST_F(AffinityTest, PrepareIsIdempotent) {
  AffinityLibrary library = BuildPrototypeAffinityLibrary(extractor_, 2);
  ASSERT_TRUE(library.source->Prepare(images_).ok());
  const float before = library.source->Score(0, 0, 0, 1);
  const uint64_t fingerprint = library.source->fingerprint();
  ASSERT_TRUE(library.source->Prepare(images_).ok());
  EXPECT_FLOAT_EQ(library.source->Score(0, 0, 0, 1), before);
  EXPECT_EQ(library.source->fingerprint(), fingerprint);
}

// Regression test: Prepare() idempotence used to be keyed on image count
// only, so re-preparing with a *different* same-sized dataset silently
// reused the stale caches. It is now keyed on a content fingerprint.
TEST_F(AffinityTest, PrepareDetectsSameCountContentChange) {
  AffinityLibrary library = BuildPrototypeAffinityLibrary(extractor_, 2);
  ASSERT_TRUE(library.source->Prepare(images_).ok());
  const uint64_t first_fingerprint = library.source->fingerprint();

  // Same image count, shifted content: variant i+1 instead of i.
  std::vector<data::Image> shifted;
  for (size_t i = 0; i < images_.size(); ++i) {
    shifted.push_back(PatternImage(static_cast<int>(i) + 1));
  }
  ASSERT_TRUE(library.source->Prepare(shifted).ok());
  EXPECT_NE(library.source->fingerprint(), first_fingerprint);

  // The re-prepared source must agree with a source prepared on the
  // shifted dataset from scratch — not with the stale caches.
  AffinityLibrary fresh = BuildPrototypeAffinityLibrary(extractor_, 2);
  ASSERT_TRUE(fresh.source->Prepare(shifted).ok());
  for (int layer = 0; layer < library.source->num_layers(); ++layer) {
    for (int i = 0; i < 3; ++i) {
      for (int j = 0; j < 3; ++j) {
        EXPECT_FLOAT_EQ(library.source->Score(layer, 1, i, j),
                        fresh.source->Score(layer, 1, i, j))
            << "stale cache at layer " << layer << " pair (" << i << ", "
            << j << ")";
      }
    }
  }
}

// The batched GEMM scorer must agree with the scalar ScoreQuery path —
// including for query images whose resolution (and hence filter-map
// area) differs from the pool's, which the scalar path always supported.
TEST_F(AffinityTest, BatchedQueryScoringMatchesScalarAcrossResolutions) {
  AffinityLibrary library = BuildPrototypeAffinityLibrary(extractor_, 3);
  ASSERT_TRUE(library.source->Prepare(images_).ok());
  const int num_functions = 15;  // 5 layers x z=3
  const int n = static_cast<int>(images_.size());

  for (int size : {32, 64}) {
    std::vector<data::Image> queries;
    for (int i = 0; i < 3; ++i) {
      data::Image img(3, size, size, 0.1f);
      data::DrawFilledCircle(&img, size / 2, size / 2, size / 4,
                             {0.9f, 0.3f, 0.2f + 0.1f * i});
      queries.push_back(img);
    }
    auto features = library.source->ExtractQueryFeatures(queries);
    ASSERT_TRUE(features.ok()) << features.status().ToString();
    auto rows = library.source->ScoreQueryRowsBatched(*features,
                                                      num_functions);
    ASSERT_TRUE(rows.ok()) << "query size " << size << ": "
                           << rows.status().ToString();
    ASSERT_EQ(rows->rows(), 3);
    ASSERT_EQ(rows->cols(), static_cast<int64_t>(num_functions) * n);
    for (int i = 0; i < 3; ++i) {
      for (int f = 0; f < num_functions; ++f) {
        const int layer = f % library.source->num_layers();
        const int z = f / library.source->num_layers();
        for (int j = 0; j < n; ++j) {
          ASSERT_NEAR(
              (*rows)(i, static_cast<int64_t>(f) * n + j),
              static_cast<double>(library.source->ScoreQuery(
                  layer, z, (*features)[static_cast<size_t>(i)], j)),
              1e-5)
              << "size " << size << " query " << i << " f " << f << " j "
              << j;
        }
      }
    }
  }
}

/// Test-local reference of the batched scorer, built only from the
/// prepared caches and SGemmReference: per layer, the product of each
/// instance's positions with every pool prototype, the ascending max over
/// positions from -1, then the z-wrap scatter into A[i, f*N + j].
Matrix ReferenceScoreRows(
    const PrototypeAffinitySource& source, int num_functions,
    const std::function<const std::vector<float>&(int64_t, int)>& positions,
    int64_t m) {
  const int n = source.num_images();
  const int num_layers = source.num_layers();
  Matrix out(m, static_cast<int64_t>(num_functions) * n);
  for (int layer = 0; layer < num_layers && layer < num_functions; ++layer) {
    const auto& data = source.layers()[static_cast<size_t>(layer)];
    const int64_t c = data.channels;
    std::vector<float> panel;
    std::vector<int64_t> offsets = {0};
    for (int j = 0; j < n; ++j) {
      const auto& protos = data.prototypes[static_cast<size_t>(j)];
      panel.insert(panel.end(), protos.begin(), protos.end());
      offsets.push_back(offsets.back() +
                        data.num_prototypes[static_cast<size_t>(j)]);
    }
    const int64_t total = offsets.back();
    for (int64_t i = 0; i < m; ++i) {
      const std::vector<float>& pos = positions(i, layer);
      const int64_t area = static_cast<int64_t>(pos.size()) / c;
      std::vector<float> scores(static_cast<size_t>(area * total));
      SGemmReference(false, true, area, total, c, 1.0f, pos.data(), c,
                     panel.data(), c, 0.0f, scores.data(), total);
      std::vector<float> best(static_cast<size_t>(total), -1.0f);
      for (int64_t p = 0; p < area; ++p) {
        for (int64_t q = 0; q < total; ++q) {
          const float v = scores[static_cast<size_t>(p * total + q)];
          float& b = best[static_cast<size_t>(q)];
          if (v > b) b = v;
        }
      }
      for (int f = layer; f < num_functions; f += num_layers) {
        const int z = f / num_layers;
        for (int j = 0; j < n; ++j) {
          const int np = data.num_prototypes[static_cast<size_t>(j)];
          out(i, static_cast<int64_t>(f) * n + j) =
              np == 0 ? 0.0
                      : static_cast<double>(best[static_cast<size_t>(
                            offsets[static_cast<size_t>(j)] + z % np)]);
        }
      }
    }
  }
  return out;
}

bool SameBytes(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(double)) == 0;
}

TEST_F(AffinityTest, BatchedScorersMatchGemmThenMaxReferenceBitForBit) {
  AffinityLibrary library = BuildPrototypeAffinityLibrary(extractor_, 3);
  const PrototypeAffinitySource& source = *library.source;
  ASSERT_TRUE(library.source->Prepare(images_).ok());
  const int num_functions = 15;  // 5 layers x z=3
  const int n = static_cast<int>(images_.size());

  Matrix pool(n, static_cast<int64_t>(num_functions) * n);
  ASSERT_TRUE(source.ScorePoolRowsInto(num_functions, &pool).ok());
  const Matrix pool_want = ReferenceScoreRows(
      source, num_functions,
      [&source](int64_t i, int layer) -> const std::vector<float>& {
        return source.layers()[static_cast<size_t>(layer)]
            .positions[static_cast<size_t>(i)];
      },
      n);
  EXPECT_TRUE(SameBytes(pool, pool_want)) << "ScorePoolRowsInto";

  for (int size : {32, 64}) {
    std::vector<data::Image> queries;
    for (int i = 0; i < 3; ++i) {
      data::Image img(3, size, size, 0.1f);
      data::DrawFilledRect(&img, size / 4, size / 4, size / 2 + 2 * i,
                           size / 2 + i, {0.3f, 0.9f, 0.1f * i});
      queries.push_back(img);
    }
    auto features = source.ExtractQueryFeatures(queries);
    ASSERT_TRUE(features.ok()) << features.status().ToString();
    auto rows = source.ScoreQueryRowsBatched(*features, num_functions);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    const Matrix rows_want = ReferenceScoreRows(
        source, num_functions,
        [&features](int64_t i, int layer) -> const std::vector<float>& {
          return (*features)[static_cast<size_t>(i)]
              .positions[static_cast<size_t>(layer)];
        },
        3);
    EXPECT_TRUE(SameBytes(*rows, rows_want))
        << "ScoreQueryRowsBatched, query size " << size;
  }
}

/// FNV-1a over raw bytes.
uint64_t Fnv1a(const void* bytes, size_t size, uint64_t hash) {
  const auto* p = static_cast<const unsigned char*>(bytes);
  for (size_t i = 0; i < size; ++i) {
    hash ^= p[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

// Golden end-to-end labels: one fixed-seed two-class task through
// GogglesPipeline::Label, hashed over its hard labels and the bytes of its
// soft labels. Scoring, GMM and ensemble changes that claim bit-identity
// must leave this value alone; a change that means to move the labels
// updates it and says why.
TEST_F(AffinityTest, GoldenLabelHashOfFixedSeedTask) {
  Rng rng(2024);
  std::vector<data::Image> images;
  std::vector<int> truth;
  for (int i = 0; i < 24; ++i) {
    const int cls = i % 2;
    data::Image img(3, 32, 32, 0.1f);
    const float cx = 12.0f + static_cast<float>(rng.Uniform()) * 8.0f;
    const float cy = 12.0f + static_cast<float>(rng.Uniform()) * 8.0f;
    if (cls == 0) {
      data::DrawFilledCircle(&img, cx, cy, 7.0f, {1.0f, 0.3f, 0.2f});
    } else {
      data::DrawCross(&img, cx, cy, 14.0f, 3, {0.2f, 0.3f, 1.0f});
    }
    data::AddGaussianNoise(&img, 0.05f, &rng);
    images.push_back(img);
    truth.push_back(cls);
  }
  GogglesPipeline pipeline(extractor_);
  Result<LabelingResult> result =
      pipeline.Label(images, {0, 1, 2, 3}, {truth[0], truth[1], truth[2],
                                            truth[3]},
                     /*num_classes=*/2);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->hard_labels.size(), images.size());
  uint64_t hash = 1469598103934665603ull;
  for (const int label : result->hard_labels) {
    const int32_t v = label;
    hash = Fnv1a(&v, sizeof(v), hash);
  }
  hash = Fnv1a(result->soft_labels.data(),
               static_cast<size_t>(result->soft_labels.size()) *
                   sizeof(double),
               hash);
  EXPECT_EQ(hash, 0x2d01add3a9ac8d53ull) << std::hex << "hash 0x" << hash;
}

TEST(VectorCosineAffinityTest, MatchesCosine) {
  Matrix emb = Matrix::FromRows({{1, 0}, {0, 1}, {1, 1}, {-1, 0}});
  VectorCosineAffinity affinity("test", emb);
  std::vector<data::Image> dummy(4, data::Image(1, 2, 2));
  ASSERT_TRUE(affinity.Prepare(dummy).ok());
  EXPECT_NEAR(affinity.Score(0, 0), 1.0f, 1e-6f);
  EXPECT_NEAR(affinity.Score(0, 1), 0.0f, 1e-6f);
  EXPECT_NEAR(affinity.Score(0, 2), 1.0f / std::sqrt(2.0f), 1e-6f);
  EXPECT_NEAR(affinity.Score(0, 3), -1.0f, 1e-6f);
  EXPECT_EQ(affinity.name(), "test");
}

TEST(VectorCosineAffinityTest, PrepareValidatesRowCount) {
  Matrix emb = Matrix::FromRows({{1, 0}});
  VectorCosineAffinity affinity("test", emb);
  std::vector<data::Image> two(2, data::Image(1, 2, 2));
  EXPECT_FALSE(affinity.Prepare(two).ok());
}

TEST(BuildAffinityMatrixTest, EmptyFunctionListRejected) {
  EXPECT_FALSE(BuildAffinityMatrix({}, 3).ok());
}

}  // namespace
}  // namespace goggles
