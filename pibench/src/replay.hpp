#pragma once

/// \file replay.hpp
/// Entry-by-entry replay of a compiled plan through the public layer
/// calls (`mpc::he_conv_*`, `he_matvec_*`, `secure_relu`,
/// `secure_maxpool`, `reveal_shares_to`, `fss::dealer_replenish` /
/// `client_replenish`) with the session's canonical reshare, so the
/// traced run can time every plan entry from outside the library.
///
/// The replay reproduces `ServerSession::run` / `ClientSession::run`
/// message for message (the traced run checks that its traffic equals
/// the real session's ChannelStats and that its logits are bit-identical).
/// It leaves out one piece of local scheduling: the server's cross-layer
/// mask prefetch, which changes when masks are drawn, never their values.

#include <vector>

#include "pi/session.hpp"
#include "trace.hpp"

namespace pibench {

namespace pi = c2pi::pi;

/// What a span covers. Plan entries map to the op they run; kLocal is a
/// plan entry with no protocol traffic (flatten, residual add).
enum class StepKind { kSetup, kPreprocess, kConv, kLinear, kRelu, kMaxPool, kLocal, kReveal, kTail };

struct Step {
    StepKind kind;
    std::int64_t elements = 0;  ///< shares entering the step (0 for setup/tail)
};

/// The span table of one replayed inference: span id = index. Ids are
/// setup, preprocess, one per plan entry, reveal, tail.
[[nodiscard]] std::vector<Step> replay_steps(const pi::ModelArtifact& artifact);

/// Serve one replayed inference; `wall` receives the server's wall
/// seconds per span id.
void replay_server(const pi::CompiledModel& model, const pi::SessionConfig& config,
                   TimingTransport& transport, std::vector<double>& wall);

/// Run the client side of one replayed inference; returns the logits.
[[nodiscard]] c2pi::Tensor replay_client(const pi::ClientModel& model,
                                         const pi::SessionConfig& config,
                                         TimingTransport& transport, const c2pi::Tensor& input,
                                         std::vector<double>& wall);

}  // namespace pibench
