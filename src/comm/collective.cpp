#include "comm/collective.h"

#include <cmath>

#include "util/error.h"

namespace optimus {

const char *
collectiveName(CollectiveKind k)
{
    switch (k) {
      case CollectiveKind::AllReduce: return "all-reduce";
      case CollectiveKind::AllGather: return "all-gather";
      case CollectiveKind::ReduceScatter: return "reduce-scatter";
      case CollectiveKind::AllToAll: return "all-to-all";
      case CollectiveKind::Broadcast: return "broadcast";
      case CollectiveKind::PointToPoint: return "p2p";
    }
    throw ModelError("unknown collective kind");
}

const char *
collectiveAlgorithmName(CollectiveAlgorithm a)
{
    switch (a) {
      case CollectiveAlgorithm::Ring: return "ring";
      case CollectiveAlgorithm::DoubleBinaryTree: return "tree";
      case CollectiveAlgorithm::Auto: return "auto";
    }
    throw ModelError("unknown collective algorithm");
}

CollectiveAlgorithm
parseCollectiveAlgorithm(const std::string &name)
{
    for (CollectiveAlgorithm a :
         {CollectiveAlgorithm::Ring, CollectiveAlgorithm::DoubleBinaryTree,
          CollectiveAlgorithm::Auto})
        if (name == collectiveAlgorithmName(a))
            return a;
    throw ConfigError("unknown collective algorithm: " + name);
}

namespace {

CollectiveResult
evaluate(CollectiveKind kind, double volume, long long n,
         const NetworkLink &link, CollectiveAlgorithm algo)
{
    CollectiveResult r;
    r.algorithm = algo;

    if (kind == CollectiveKind::PointToPoint) {
        r.effectiveBandwidth = link.effectiveBandwidth(volume);
        r.bandwidthTime = volume / r.effectiveBandwidth;
        r.latencyTime = link.latency + link.collectiveOverhead;
        r.time = r.bandwidthTime + r.latencyTime;
        return r;
    }

    if (n == 1) {
        r.effectiveBandwidth = link.bandwidth;
        return r;  // degenerate group: free
    }

    // The tensor volume (pipelined across the ring/tree) determines
    // the achievable utilization.
    r.effectiveBandwidth = link.effectiveBandwidth(volume);
    const double bw = r.effectiveBandwidth;
    const double N = double(n);
    const double l = link.latency;

    double steps = (algo == CollectiveAlgorithm::DoubleBinaryTree)
                       ? std::log2(N)
                       : (N - 1.0);

    r.latencyTime = link.collectiveOverhead;

    switch (kind) {
      case CollectiveKind::AllReduce:
        // Eq. 3 / Eq. 4: scatter-reduce + all-gather.
        r.bandwidthTime = 2.0 * volume * (N - 1.0) / (N * bw);
        r.latencyTime += 2.0 * l * steps;
        break;
      case CollectiveKind::AllGather:
      case CollectiveKind::ReduceScatter:
      case CollectiveKind::AllToAll:
        // All-to-all: each device keeps 1/N of its buffer and sends
        // the rest, the same wire volume as an all-gather.
        r.bandwidthTime = volume * (N - 1.0) / (N * bw);
        r.latencyTime += l * steps;
        break;
      case CollectiveKind::Broadcast:
        r.bandwidthTime = volume / bw;
        r.latencyTime += l * steps;
        break;
      case CollectiveKind::PointToPoint:
        break;  // handled above
    }
    r.time = r.bandwidthTime + r.latencyTime;
    return r;
}

} // namespace

CollectiveResult
collectiveTime(CollectiveKind kind, double volume, long long group_size,
               const NetworkLink &link, CollectiveAlgorithm algo)
{
    checkConfig(volume >= 0.0, "collective volume must be non-negative");
    checkPositive(group_size, "collective group size");

    if (algo != CollectiveAlgorithm::Auto)
        return evaluate(kind, volume, group_size, link, algo);

    CollectiveResult ring = evaluate(kind, volume, group_size, link,
                                     CollectiveAlgorithm::Ring);
    CollectiveResult tree =
        evaluate(kind, volume, group_size, link,
                 CollectiveAlgorithm::DoubleBinaryTree);
    return ring.time <= tree.time ? ring : tree;
}

GroupScope
groupScopeFor(const System &sys, long long packed_degree)
{
    checkPositive(packed_degree, "communication group packed degree");
    return packed_degree > sys.devicesPerNode ? GroupScope::InterNode
                                              : GroupScope::IntraNode;
}

CollectiveResult
systemCollective(const System &sys, CollectiveKind kind, double volume,
                 long long group_size, GroupScope scope,
                 CollectiveAlgorithm algo)
{
    if (scope == GroupScope::IntraNode) {
        checkConfig(group_size <= sys.devicesPerNode,
                    "intra-node group larger than a node");
        return collectiveTime(kind, volume, group_size, sys.intraLink,
                              algo);
    }
    // Inter-node groups: each device in a node participates in a
    // distinct concurrent group, so each group sees a share of the
    // per-node link bandwidth.
    NetworkLink shared = sys.interLink;
    shared.bandwidth = sys.interLink.bandwidth / sys.devicesPerNode;
    return collectiveTime(kind, volume, group_size, shared, algo);
}

} // namespace optimus
