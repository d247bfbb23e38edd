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
// A change that must keep served bits (a kernel rewrite, a new inference
// path) builds this tool on both trees and compares the two lines. The tool
// itself exits 1 when a dense and a sparse query of the same input differ,
// which the nn contract forbids for both formats.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "core/privacy_layer.hpp"
#include "core/service.hpp"
#include "mobility/dataset.hpp"
#include "nn/model.hpp"
#include "nn/sparse.hpp"

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

}  // namespace

int main() {
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

  std::printf("fp32 %016llx\n", static_cast<unsigned long long>(fp32_hash));
  std::printf("int8 %016llx\n", static_cast<unsigned long long>(int8_hash));
  return mismatches == 0 ? 0 : 1;
}
