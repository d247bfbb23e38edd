#include "nn/activations.hpp"

namespace pelican::nn {

void lstm_gate_pass(float* gates, const float* bias, const float* c_prev,
                    float* c_out, float* tanh_c_out, float* h_out,
                    std::size_t hidden) {
  float* gi = gates;
  float* gf = gates + hidden;
  float* gg = gates + 2 * hidden;
  float* go = gates + 3 * hidden;
  for (std::size_t j = 0; j < hidden; ++j) {
    const float i = sigmoid(gi[j] + bias[j]);
    const float f = sigmoid(gf[j] + bias[hidden + j]);
    const float g = std::tanh(gg[j] + bias[2 * hidden + j]);
    const float o = sigmoid(go[j] + bias[3 * hidden + j]);
    gi[j] = i;
    gf[j] = f;
    gg[j] = g;
    go[j] = o;
    const float c = f * c_prev[j] + i * g;
    const float tc = std::tanh(c);
    c_out[j] = c;
    tanh_c_out[j] = tc;
    h_out[j] = o * tc;
  }
}

}  // namespace pelican::nn
