// pelican_logit_hash — fingerprint the bits a deployment serves.
//
// Builds fp32 and int8 deployments of seeded weights over a grid of shapes
// (LSTM hidden 17/64/128 x layers 1/2 x batch 1/7/64 x steps 1/3/5, 108
// shapes), queries each with a seeded one-hot input in both encodings, and
// prints one FNV-1a hash per weight format over the bits of every
// DeployedModel::query output:
//
//   $ pelican_logit_hash
//   fp32 <16 hex digits>
//   int8 <16 hex digits>
//
// Two more lines hash batches whose rows share leading steps, as attack
// queries do (hidden 17/64 x layers 1/2/3 x steps 2/3/5, 18 shapes): runs
// of rows sharing their first s steps for s = 1..steps-1, a row repeated
// exactly, an A-B-A triple and rows equal after step 0, all in one batch:
//
//   fp32-prefix <16 hex digits>
//   int8-prefix <16 hex digits>
//
// A last line hashes every weight of a 2-layer LSTM (hidden 17 and 24)
// after seeded nn::train epochs on one-hot windows, trained once from dense
// and once from sparse batches: the gate pass runs in training too.
//
//   train <16 hex digits>
//
// The five lines are committed in tools/logit_hash.golden. With
// `--golden <file>` the tool compares its output against that file and
// exits 1, printing both, when they differ; a change that must keep served
// and trained bits (a kernel rewrite, a new inference path) thus fails the
// tools_logit_hash_smoke test instead of needing a build of its parent. The
// lines also depend on the libm calls outside the lane kernels (the double
// exp of the privacy layer's softmax, the training loss), which glibc runs
// as an FMA or an SSE2 build depending on the CPU. So the comparison runs
// only where std::exp(float) shows glibc's FMA build (the probe of
// tests/support/glibc_expf.hpp), the build the golden lines come from, and
// is reported as skipped elsewhere.
//
// The tool also exits 1 when a dense and a sparse query of the same input
// differ, when a row of a prefix batch differs from that row queried
// alone, or when dense and sparse training end on different weights; the
// nn contract forbids all three.
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "core/privacy_layer.hpp"
#include "core/service.hpp"
#include "mobility/dataset.hpp"
#include "nn/data.hpp"
#include "nn/lstm.hpp"
#include "nn/model.hpp"
#include "nn/sparse.hpp"
#include "nn/trainer.hpp"
#include "support/glibc_expf.hpp"

namespace {

using namespace pelican;

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

void fnv1a(std::uint64_t& hash, const nn::Matrix& m) {
  for (const float v : m.flat()) {
    unsigned char bytes[sizeof(float)];
    std::memcpy(bytes, &v, sizeof(v));
    for (const unsigned char b : bytes) {
      hash = (hash ^ b) * kFnvPrime;
    }
  }
}

bool same_bits(const nn::Matrix& a, const nn::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Four hot columns per row, one in each quarter of the input, like the
/// mobility encoding's entry/duration/location/day blocks.
nn::SparseSequence one_hot_input(std::size_t steps, std::size_t batch,
                                 std::size_t dim, Rng& rng) {
  nn::SparseSequence x(steps, nn::SparseRows(batch, dim));
  for (nn::SparseRows& step : x) {
    for (std::size_t r = 0; r < batch; ++r) {
      for (std::size_t block = 0; block < 4; ++block) {
        const std::size_t lo = dim * block / 4;
        const std::size_t hi = dim * (block + 1) / 4;
        step.add(r, lo + rng.below(hi - lo), 1.0f);
      }
    }
  }
  return x;
}

/// One input row: the four hot columns of each step.
using Row = std::vector<std::array<std::size_t, 4>>;

Row random_row(std::size_t steps, std::size_t dim, Rng& rng) {
  Row row(steps);
  for (auto& step : row) {
    for (std::size_t block = 0; block < 4; ++block) {
      const std::size_t lo = dim * block / 4;
      const std::size_t hi = dim * (block + 1) / 4;
      step[block] = lo + rng.below(hi - lo);
    }
  }
  return row;
}

/// Rows that share leading steps, in adjacent rows as the attack's
/// enumerators emit them: for each s in 1..steps-1, three runs of four rows
/// sharing their first s steps; then one row three times; then A, B, A;
/// then three rows that differ at step 0 only, which must not share state.
std::vector<Row> prefix_rows(std::size_t steps, std::size_t dim, Rng& rng) {
  std::vector<Row> rows;
  for (std::size_t shared = 1; shared < steps; ++shared) {
    for (int run = 0; run < 3; ++run) {
      const Row prefix = random_row(shared, dim, rng);
      for (int i = 0; i < 4; ++i) {
        Row row = prefix;
        const Row suffix = random_row(steps - shared, dim, rng);
        row.insert(row.end(), suffix.begin(), suffix.end());
        rows.push_back(row);
      }
    }
  }
  const Row twice = random_row(steps, dim, rng);
  rows.insert(rows.end(), 3, twice);
  const Row a = random_row(steps, dim, rng);
  const Row b = random_row(steps, dim, rng);
  rows.push_back(a);
  rows.push_back(b);
  rows.push_back(a);
  const Row later = random_row(steps, dim, rng);
  for (std::size_t i = 0; i < 3; ++i) {
    Row row = later;
    row[0][0] = i;  // distinct hot columns in the first block
    rows.push_back(row);
  }
  return rows;
}

nn::SparseSequence encode(std::span<const Row> rows, std::size_t steps,
                          std::size_t dim) {
  nn::SparseSequence x(steps, nn::SparseRows(rows.size(), dim));
  for (std::size_t t = 0; t < steps; ++t) {
    for (std::size_t r = 0; r < rows.size(); ++r) {
      for (const std::size_t col : rows[r][t]) x[t].add(r, col, 1.0f);
    }
  }
  return x;
}

/// Hashes the prefix batches' query bits into fp32_hash and int8_hash;
/// returns the number of batches that disagree with their rows queried
/// one at a time or across encodings.
int hash_prefix_batches(const mobility::EncodingSpec& spec,
                        std::uint64_t& fp32_hash, std::uint64_t& int8_hash) {
  int mismatches = 0;
  for (const std::size_t hidden : {17, 64}) {
    for (const std::size_t layers : {1, 2, 3}) {
      for (const std::size_t steps : {2, 3, 5}) {
        Rng rng(7'000'000 + 1'000 * hidden + 10 * layers + steps);
        nn::SequenceClassifier fp32 =
            layers == 1
                ? nn::make_one_layer_lstm(spec.input_dim(), hidden,
                                          spec.num_locations, 0.0, rng)
                : nn::make_two_layer_lstm(spec.input_dim(), hidden,
                                          spec.num_locations, 0.1, rng);
        if (layers == 3) {
          // The transfer-learning feature-extraction shape the attack
          // queries: one more LSTM between the base and the head.
          fp32.insert_layer(fp32.layer_count(),
                            std::make_unique<nn::Lstm>(hidden, hidden, rng));
        }
        nn::SequenceClassifier int8 = nn::quantize_for_serving(fp32);
        const std::vector<Row> rows =
            prefix_rows(steps, spec.input_dim(), rng);
        const nn::SparseSequence sparse =
            encode(rows, steps, spec.input_dim());
        const nn::Sequence dense = nn::to_dense(sparse);

        const auto run = [&](nn::SequenceClassifier model,
                             std::uint64_t& hash, const char* format) {
          core::DeployedModel deployment(std::move(model), spec,
                                         core::PrivacyLayer(0.5),
                                         core::DeploymentSite::kInCloud);
          const nn::Matrix from_dense = deployment.query(dense);
          const nn::Matrix from_sparse = deployment.query(sparse);
          fnv1a(hash, from_dense);
          fnv1a(hash, from_sparse);
          bool agree = same_bits(from_dense, from_sparse);
          for (std::size_t r = 0; r < rows.size(); ++r) {
            const nn::Matrix alone = deployment.query(
                encode(std::span<const Row>(&rows[r], 1), steps,
                       spec.input_dim()));
            agree = agree && std::memcmp(alone.data(),
                                         from_sparse.row(r).data(),
                                         alone.size() * sizeof(float)) == 0;
          }
          if (!agree) {
            std::fprintf(stderr,
                         "%s-prefix hidden=%zu layers=%zu steps=%zu: the "
                         "batch differs from its rows queried alone or "
                         "across encodings\n",
                         format, hidden, layers, steps);
            ++mismatches;
          }
        };
        run(std::move(fp32), fp32_hash, "fp32");
        run(std::move(int8), int8_hash, "int8");
      }
    }
  }
  return mismatches;
}

/// Seeded one-hot windows (four hot columns per step, as one_hot_input)
/// whose label is a function of the last step, served dense or sparse.
class OneHotWindows final : public nn::BatchSource {
 public:
  OneHotWindows(std::size_t samples, std::size_t steps, std::size_t dim,
                std::size_t classes, bool sparse, Rng& rng)
      : steps_(steps), dim_(dim), classes_(classes), sparse_(sparse) {
    for (std::size_t s = 0; s < samples; ++s) {
      rows_.push_back(random_row(steps, dim, rng));
      labels_.push_back(
          static_cast<std::int32_t>(rows_.back().back()[2] % classes));
    }
  }

  [[nodiscard]] std::size_t size() const override { return rows_.size(); }
  [[nodiscard]] std::size_t seq_len() const override { return steps_; }
  [[nodiscard]] std::size_t input_dim() const override { return dim_; }
  [[nodiscard]] std::size_t num_classes() const override { return classes_; }
  [[nodiscard]] bool sparse() const override { return sparse_; }

  void materialize(std::span<const std::uint32_t> indices, nn::Sequence& x,
                   std::vector<std::int32_t>& y) const override {
    nn::SparseSequence sparse;
    materialize_sparse(indices, sparse, y);
    x = nn::to_dense(sparse);
  }

  void materialize_sparse(std::span<const std::uint32_t> indices,
                          nn::SparseSequence& x,
                          std::vector<std::int32_t>& y) const override {
    std::vector<Row> rows;
    y.clear();
    for (const std::uint32_t i : indices) {
      rows.push_back(rows_[i]);
      y.push_back(labels_[i]);
    }
    x = encode(rows, steps_, dim_);
  }

 private:
  std::size_t steps_;
  std::size_t dim_;
  std::size_t classes_;
  bool sparse_;
  std::vector<Row> rows_;
  std::vector<std::int32_t> labels_;
};

/// Hashes the weights that seeded training ends on into `hash`; returns the
/// number of shapes whose dense and sparse training disagree.
int hash_training(std::uint64_t& hash) {
  int mismatches = 0;
  constexpr std::size_t kDim = 40;
  constexpr std::size_t kClasses = 12;
  constexpr std::size_t kSteps = 3;
  for (const std::size_t hidden : {17, 24}) {
    std::vector<nn::SequenceClassifier> trained;
    for (const bool sparse : {false, true}) {
      Rng rng(9'000'000 + hidden);
      const OneHotWindows data(96, kSteps, kDim, kClasses, sparse, rng);
      trained.push_back(
          nn::make_two_layer_lstm(kDim, hidden, kClasses, 0.1, rng));
      nn::TrainConfig config;
      config.epochs = 3;
      config.batch_size = 16;
      config.lr = 1e-2;
      config.seed = hidden;
      (void)nn::train(trained.back(), data, config);
    }
    const std::vector<nn::ParamRef> dense = trained[0].all_params();
    const std::vector<nn::ParamRef> sparse = trained[1].all_params();
    bool agree = dense.size() == sparse.size();
    for (std::size_t p = 0; agree && p < dense.size(); ++p) {
      fnv1a(hash, *dense[p].value);
      agree = same_bits(*dense[p].value, *sparse[p].value);
    }
    if (!agree) {
      std::fprintf(stderr,
                   "train hidden=%zu: dense and sparse training end on "
                   "different weights\n",
                   hidden);
      ++mismatches;
    }
  }
  return mismatches;
}

/// The hash lines of a golden file: every non-empty line not starting
/// with '#'. Returns false when the file cannot be read.
bool read_golden(const char* path, std::string& lines) {
  std::ifstream in(path);
  if (!in) return false;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line[0] != '#') lines += line + "\n";
  }
  return true;
}

/// Compares `lines` against the golden file at `path`; returns the number
/// of failures (0 or 1).
int check_golden(const char* path, const std::string& lines) {
  if (!testing::libm_expf_is_glibc_fma()) {
    std::printf("golden: skipped (this libm's expf is not glibc's FMA "
                "build, which the golden lines come from)\n");
    return 0;
  }
  std::string golden;
  if (!read_golden(path, golden)) {
    std::fprintf(stderr, "golden: cannot read %s\n", path);
    return 1;
  }
  if (golden != lines) {
    std::fprintf(stderr,
                 "golden: the served or trained bits changed.\n"
                 "--- %s\n%s--- this build\n%s",
                 path, golden.c_str(), lines.c_str());
    return 1;
  }
  std::printf("golden: all lines match %s\n", path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* golden_path = nullptr;
  if (argc == 3 && std::string_view(argv[1]) == "--golden") {
    golden_path = argv[2];
  } else if (argc != 1) {
    std::fprintf(stderr, "usage: %s [--golden <file>]\n", argv[0]);
    return 2;
  }
  const mobility::EncodingSpec spec{mobility::SpatialLevel::kBuilding, 40};
  std::uint64_t fp32_hash = kFnvOffset;
  std::uint64_t int8_hash = kFnvOffset;
  int mismatches = 0;

  for (const std::size_t hidden : {17, 64, 128}) {
    for (const std::size_t layers : {1, 2}) {
      for (const std::size_t batch : {1, 7, 64}) {
        for (const std::size_t steps : {1, 3, 5}) {
          Rng rng(1'000'000 * hidden + 10'000 * layers + 100 * batch + steps);
          nn::SequenceClassifier fp32 =
              layers == 1 ? nn::make_one_layer_lstm(spec.input_dim(), hidden,
                                                    spec.num_locations, 0.0,
                                                    rng)
                          : nn::make_two_layer_lstm(spec.input_dim(), hidden,
                                                    spec.num_locations, 0.1,
                                                    rng);
          nn::SequenceClassifier int8 = nn::quantize_for_serving(fp32);
          const nn::SparseSequence sparse =
              one_hot_input(steps, batch, spec.input_dim(), rng);
          const nn::Sequence dense = nn::to_dense(sparse);

          const auto run = [&](nn::SequenceClassifier model,
                               std::uint64_t& hash, const char* format) {
            core::DeployedModel deployment(std::move(model), spec,
                                           core::PrivacyLayer(0.5),
                                           core::DeploymentSite::kInCloud);
            const nn::Matrix from_dense = deployment.query(dense);
            const nn::Matrix from_sparse = deployment.query(sparse);
            fnv1a(hash, from_dense);
            fnv1a(hash, from_sparse);
            if (!same_bits(from_dense, from_sparse)) {
              std::fprintf(stderr,
                           "%s hidden=%zu layers=%zu batch=%zu steps=%zu: "
                           "dense and sparse queries differ\n",
                           format, hidden, layers, batch, steps);
              ++mismatches;
            }
          };
          run(std::move(fp32), fp32_hash, "fp32");
          run(std::move(int8), int8_hash, "int8");
        }
      }
    }
  }

  std::uint64_t fp32_prefix_hash = kFnvOffset;
  std::uint64_t int8_prefix_hash = kFnvOffset;
  mismatches += hash_prefix_batches(spec, fp32_prefix_hash, int8_prefix_hash);

  std::uint64_t train_hash = kFnvOffset;
  mismatches += hash_training(train_hash);

  std::string lines;
  const auto add_line = [&](const char* name, std::uint64_t hash) {
    char line[64];
    std::snprintf(line, sizeof(line), "%s %016llx\n", name,
                  static_cast<unsigned long long>(hash));
    lines += line;
  };
  add_line("fp32", fp32_hash);
  add_line("int8", int8_hash);
  add_line("fp32-prefix", fp32_prefix_hash);
  add_line("int8-prefix", int8_prefix_hash);
  add_line("train", train_hash);
  std::fputs(lines.c_str(), stdout);
  if (golden_path != nullptr) mismatches += check_golden(golden_path, lines);
  return mismatches == 0 ? 0 : 1;
}
