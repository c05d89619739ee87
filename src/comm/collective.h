/**
 * @file
 * Analytical models of the communication collectives used by
 * distributed training and inference (paper Sec. 3.4).
 *
 * Two all-reduce algorithms are modeled:
 *  - Ring (bandwidth-optimal, Eq. 3):
 *      T = 2K(N-1)/(N*BW) + 2*l*(N-1)
 *  - Double binary trees (bandwidth- and latency-optimal, Eq. 4):
 *      T = 2K(N-1)/(N*BW) + 2*l*log2(N)
 *
 * BW is the message-size-adjusted effective bandwidth (the paper's
 * utilization factor for low-volume inference traffic).
 */

#ifndef OPTIMUS_COMM_COLLECTIVE_H
#define OPTIMUS_COMM_COLLECTIVE_H

#include <string>

#include "hw/network.h"
#include "hw/system.h"

namespace optimus {

/** Collective operation kinds. */
enum class CollectiveKind {
    AllReduce,
    AllGather,
    ReduceScatter,
    AllToAll,
    Broadcast,
    PointToPoint,
};

/** Algorithm used to schedule the collective. */
enum class CollectiveAlgorithm {
    Ring,
    DoubleBinaryTree,
    Auto,  ///< pick the faster of the two
};

/** Name of a collective kind ("all-reduce", ...). */
const char *collectiveName(CollectiveKind k);

/** Name of a collective algorithm ("ring", "tree", "auto"). */
const char *collectiveAlgorithmName(CollectiveAlgorithm a);

/**
 * Inverse of collectiveAlgorithmName; throws ConfigError on any other
 * name.
 */
CollectiveAlgorithm parseCollectiveAlgorithm(const std::string &name);

/** Decomposed cost of one collective call. */
struct CollectiveResult
{
    double time = 0.0;            ///< total
    double bandwidthTime = 0.0;   ///< volume-proportional term
    double latencyTime = 0.0;     ///< hop-latency term
    double effectiveBandwidth = 0.0;
    CollectiveAlgorithm algorithm = CollectiveAlgorithm::Ring;
};

/**
 * Cost of a collective over @p group_size endpoints on @p link.
 *
 * @param volume  bytes of the full tensor on each participating device
 */
CollectiveResult collectiveTime(CollectiveKind kind, double volume,
                                long long group_size,
                                const NetworkLink &link,
                                CollectiveAlgorithm algo =
                                    CollectiveAlgorithm::Auto);

/** Where a communication group lives within the system topology. */
enum class GroupScope {
    IntraNode,  ///< all members inside one node (TP/SP groups)
    InterNode,  ///< one member per node (DP/PP groups); the per-node
                ///< network is shared by devicesPerNode concurrent
                ///< groups
};

/**
 * Scope convention for a communication group under the standard
 * Megatron packing order (TP innermost, then CP/EP/PP, DP outermost):
 * a group spans nodes only when the product of the parallel degrees
 * packed inside it *exceeds* devicesPerNode. At exactly
 * devicesPerNode the group still fits one node and stays on the
 * intra-node link.
 *
 * @p packed_degree is that product: `tp` for the TP group, `cp*tp`
 * for CP, `tp*pp` for EP and PP, `totalDevices` for DP. Every scope
 * decision in the kernel-plan lowering pass goes through this one
 * predicate so training and inference can never disagree.
 */
GroupScope groupScopeFor(const System &sys, long long packed_degree);

/**
 * Cost of a collective mapped onto @p sys: intra-node groups use the
 * intra-node link; inter-node groups use a 1/devicesPerNode share of
 * the per-node inter-node link (all devices of a node communicate
 * concurrently in distinct groups, the standard Megatron placement).
 */
CollectiveResult systemCollective(const System &sys, CollectiveKind kind,
                                  double volume, long long group_size,
                                  GroupScope scope,
                                  CollectiveAlgorithm algo =
                                      CollectiveAlgorithm::Auto);

} // namespace optimus

#endif // OPTIMUS_COMM_COLLECTIVE_H
