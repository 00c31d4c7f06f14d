#include "replay.hpp"

#include "fss/compare.hpp"
#include "mpc/linear.hpp"
#include "mpc/nonlinear.hpp"

namespace pibench {

namespace {

namespace mpc = c2pi::mpc;
namespace crypto = c2pi::crypto;
using c2pi::Ring;
using c2pi::require;
using c2pi::Tensor;

constexpr int kSetupSpan = 0;
constexpr int kPreprocessSpan = 1;
constexpr int kFirstEntrySpan = 2;

/// Same derivation as the sessions' (session.cpp): both parties key the
/// base-OT dealer from the agreed seed.
crypto::Block128 session_seed(const pi::SessionConfig& config) {
    return crypto::Block128{config.seed, config.seed ^ 0xC2F1};
}

/// The session layer's canonical post-nonlinear resharing, rebuilt from
/// public calls: the client re-draws its share from share_prg() and
/// ships the one-time-padded difference.
std::vector<Ring> reshare_canonical(mpc::PartyContext& ctx, std::vector<Ring> share) {
    if (ctx.is_server()) {
        std::vector<Ring> delta;
        ctx.transport().recv_u64s_into(ctx.recv_scratch(), delta);
        require(delta.size() == share.size(), "replay: reshare delta size mismatch");
        for (std::size_t i = 0; i < share.size(); ++i) share[i] += delta[i];
    } else {
        std::vector<Ring> delta(share.size());
        for (std::size_t i = 0; i < share.size(); ++i) {
            const Ring fresh = ctx.share_prg().next_u64();
            delta[i] = share[i] - fresh;
            share[i] = fresh;
        }
        ctx.transport().send_u64s(delta);
    }
    return share;
}

/// Walk the planned DAG like the session does, timing each entry as its
/// own span. Returns this party's share of the plan's output.
std::vector<Ring> execute(mpc::PartyContext& ctx, TimingTransport& t,
                          const std::vector<pi::LayerPlan>& plan,
                          const std::vector<pi::LayerCache>& caches, pi::PiBackend backend,
                          mpc::NonlinearBackend nonlinear, std::vector<Ring> share,
                          std::vector<double>& wall) {
    const std::size_t n = plan.size();
    const int frac_bits = ctx.fmt().frac_bits;
    std::vector<std::size_t> last_use(n + 1, 0);
    for (std::size_t i = 0; i < n; ++i) {
        last_use[static_cast<std::size_t>(plan[i].input0 + 1)] = i;
        if (plan[i].op == pi::PlanOp::kResidualAdd)
            last_use[static_cast<std::size_t>(plan[i].input1 + 1)] = i;
    }
    std::vector<std::vector<Ring>> outs(n);
    const auto take = [&](std::size_t i, std::int64_t src) -> std::vector<Ring> {
        std::vector<Ring>& s = src < 0 ? share : outs[static_cast<std::size_t>(src)];
        if (last_use[static_cast<std::size_t>(src + 1)] == i) return std::move(s);
        return s;
    };
    const auto truncate = [&](std::vector<Ring>& v) {
        for (auto& x : v) x = static_cast<Ring>(static_cast<std::int64_t>(x) >> frac_bits);
    };

    for (std::size_t i = 0; i < n; ++i) {
        const pi::LayerPlan& p = plan[i];
        const int span = kFirstEntrySpan + static_cast<int>(i);
        t.set_span(span);
        const auto t0 = Clock::now();
        std::vector<Ring> cur = take(i, p.input0);
        switch (p.op) {
            case pi::PlanOp::kConv:
                if (backend == pi::PiBackend::kDelphi) t.set_phase(net::Phase::kOffline);
                cur = ctx.is_server() ? mpc::he_conv_server(ctx, *caches[i].conv, cur)
                                      : mpc::he_conv_client(ctx, caches[i].conv->enc, cur);
                t.set_phase(net::Phase::kOnline);
                truncate(cur);
                break;
            case pi::PlanOp::kLinear:
                if (backend == pi::PiBackend::kDelphi) t.set_phase(net::Phase::kOffline);
                cur = ctx.is_server() ? mpc::he_matvec_server(ctx, *caches[i].matvec, cur)
                                      : mpc::he_matvec_client(ctx, caches[i].matvec->enc, cur);
                t.set_phase(net::Phase::kOnline);
                truncate(cur);
                break;
            case pi::PlanOp::kRelu:
                cur = reshare_canonical(ctx, mpc::secure_relu(ctx, cur, nonlinear));
                break;
            case pi::PlanOp::kMaxPool: {
                const mpc::RingTensor x(p.in_shape, std::move(cur));
                cur = reshare_canonical(
                    ctx, mpc::secure_maxpool(ctx, x, p.pool_kernel, p.pool_stride, nonlinear).data);
                break;
            }
            case pi::PlanOp::kResidualAdd: {
                const std::vector<Ring> other = take(i, p.input1);
                require(other.size() == cur.size(), "replay: residual add size mismatch");
                for (std::size_t k = 0; k < cur.size(); ++k) cur[k] += other[k];
                break;
            }
            case pi::PlanOp::kFlatten:
                break;
            case pi::PlanOp::kAvgPool:
            case pi::PlanOp::kGlobalAvgPool:
                c2pi::fail("replay: average pooling inside the crypto prefix is not replayed");
        }
        outs[i] = std::move(cur);
        wall[static_cast<std::size_t>(span)] = seconds_between(t0, Clock::now());
    }
    return std::move(outs.back());
}

/// Runs `body` as span `span`, recording its wall time.
template <typename Fn>
auto timed_span(TimingTransport& t, std::vector<double>& wall, int span, Fn&& body) {
    t.set_span(span);
    const auto t0 = Clock::now();
    if constexpr (std::is_void_v<decltype(body())>) {
        body();
        wall[static_cast<std::size_t>(span)] = seconds_between(t0, Clock::now());
    } else {
        auto out = body();
        wall[static_cast<std::size_t>(span)] = seconds_between(t0, Clock::now());
        return out;
    }
}

}  // namespace

std::vector<Step> replay_steps(const pi::ModelArtifact& artifact) {
    std::vector<Step> steps{{StepKind::kSetup}, {StepKind::kPreprocess}};
    for (const pi::LayerPlan& p : artifact.plan) {
        StepKind kind = StepKind::kLocal;
        switch (p.op) {
            case pi::PlanOp::kConv: kind = StepKind::kConv; break;
            case pi::PlanOp::kLinear: kind = StepKind::kLinear; break;
            case pi::PlanOp::kRelu: kind = StepKind::kRelu; break;
            case pi::PlanOp::kMaxPool: kind = StepKind::kMaxPool; break;
            default: break;
        }
        steps.push_back({kind, c2pi::shape_numel(p.in_shape)});
    }
    steps.push_back({StepKind::kReveal, c2pi::shape_numel(artifact.plan.back().out_shape)});
    steps.push_back({StepKind::kTail});
    return steps;
}

void replay_server(const pi::CompiledModel& cm, const pi::SessionConfig& config,
                   TimingTransport& t, std::vector<double>& wall) {
    const std::size_t n = cm.plan().size();
    wall.assign(n + 4, 0.0);
    mpc::PartyContext ctx(t, cm.fmt(), cm.bfv(), session_seed(config));
    ctx.set_gc_cache(&cm.gc_cache());
    ctx.set_pipeline(config.pipeline);
    t.set_pipelined_sends(config.pipeline);
    const mpc::NonlinearBackend nonlinear = pi::resolve_nonlinear(config);

    timed_span(t, wall, kSetupSpan, [&] {
        t.set_phase(net::Phase::kOffline);
        std::vector<std::uint8_t> setup(crypto::OtSetupPair::setup_traffic_bytes() + 1);
        setup.back() = static_cast<std::uint8_t>(nonlinear);
        t.send_bytes(setup);
        t.set_phase(net::Phase::kOnline);
    });
    timed_span(t, wall, kPreprocessSpan, [&] {
        if (nonlinear == mpc::NonlinearBackend::kFss)
            c2pi::fss::dealer_replenish(t, ctx.prg(), ctx.fss_pool(),
                                        pi::count_fss_comparisons(cm.plan()));
    });

    std::vector<Ring> share(static_cast<std::size_t>(c2pi::shape_numel(cm.input_shape())), 0);
    share = execute(ctx, t, cm.plan(), cm.layer_caches(), config.backend, nonlinear,
                    std::move(share), wall);

    const int reveal_span = kFirstEntrySpan + static_cast<int>(n);
    if (cm.full_pi()) {
        timed_span(t, wall, reveal_span,
                   [&] { (void)mpc::reveal_shares_to(ctx, share, mpc::kClient); });
        timed_span(t, wall, reveal_span + 1, [&] { t.flush_sends(); });
        return;
    }
    const auto boundary = timed_span(t, wall, reveal_span, [&] {
        return mpc::reveal_shares_to(ctx, share, mpc::kServer);
    });
    timed_span(t, wall, reveal_span + 1, [&] {
        Tensor act(cm.batched_boundary_shape(1));
        for (std::int64_t i = 0; i < act.numel(); ++i)
            act[i] = static_cast<float>(cm.fmt().decode(boundary[static_cast<std::size_t>(i)]));
        const Tensor out = cm.run_clear_tail(act);
        std::vector<Ring> packed(static_cast<std::size_t>(out.numel()));
        for (std::int64_t i = 0; i < out.numel(); ++i)
            packed[static_cast<std::size_t>(i)] = cm.fmt().encode(out[i]);
        t.send_u64s(packed);
        t.flush_sends();
    });
}

Tensor replay_client(const pi::ClientModel& model, const pi::SessionConfig& config,
                     TimingTransport& t, const Tensor& input, std::vector<double>& wall) {
    const pi::ModelArtifact& art = model.artifact();
    require(config.noise_lambda == 0.0F, "replay: client noise is not replayed");
    pi::validate_client_input(art, input);
    const std::size_t n = art.plan.size();
    wall.assign(n + 4, 0.0);
    mpc::PartyContext ctx(t, art.fmt, model.bfv(), session_seed(config));
    ctx.set_gc_cache(&model.gc_cache());
    ctx.set_pipeline(config.pipeline);
    t.set_pipelined_sends(config.pipeline);

    mpc::NonlinearBackend nonlinear{};
    timed_span(t, wall, kSetupSpan, [&] {
        t.set_phase(net::Phase::kOffline);
        const auto setup = t.recv_bytes();
        require(setup.size() == crypto::OtSetupPair::setup_traffic_bytes() + 1,
                "replay: dealer setup message has unexpected size");
        nonlinear = static_cast<mpc::NonlinearBackend>(setup.back());
        t.set_phase(net::Phase::kOnline);
        crypto::ChaCha20Prg key_prg(crypto::Block128{config.seed ^ 0x5E17, 0x11}, 3);
        ctx.set_client_key(model.bfv().keygen(key_prg));
    });
    timed_span(t, wall, kPreprocessSpan, [&] {
        if (nonlinear == mpc::NonlinearBackend::kFss)
            c2pi::fss::client_replenish(t, ctx.fss_pool(), pi::count_fss_comparisons(art.plan));
    });

    std::vector<Ring> share(static_cast<std::size_t>(input.numel()));
    for (std::size_t i = 0; i < share.size(); ++i)
        share[i] = art.fmt.encode(input[static_cast<std::int64_t>(i)]);
    share = execute(ctx, t, art.plan, model.layer_caches(), config.backend, nonlinear,
                    std::move(share), wall);

    const int reveal_span = kFirstEntrySpan + static_cast<int>(n);
    std::vector<Ring> out;
    if (art.full_pi) {
        out = timed_span(t, wall, reveal_span,
                         [&] { return mpc::reveal_shares_to(ctx, share, mpc::kClient); });
        timed_span(t, wall, reveal_span + 1, [&] { t.flush_sends(); });
    } else {
        timed_span(t, wall, reveal_span,
                   [&] { (void)mpc::reveal_shares_to(ctx, share, mpc::kServer); });
        out = timed_span(t, wall, reveal_span + 1, [&] {
            auto packed = t.recv_u64s();
            t.flush_sends();
            return packed;
        });
    }
    Tensor logits({1, static_cast<std::int64_t>(out.size())});
    for (std::size_t i = 0; i < out.size(); ++i)
        logits[static_cast<std::int64_t>(i)] = static_cast<float>(art.fmt.decode(out[i]));
    return logits;
}

}  // namespace pibench
