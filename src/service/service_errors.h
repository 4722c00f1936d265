// Shared error formatting for the serving layer.
//
// Batch callers see one Status per request; when dozens of requests fail
// together the message must say *which* request failed, or the failure is
// unattributable. Every service error path funnels through these helpers so
// the format stays uniform: a short request-signature prefix (the stable
// content address of request_key.h — greppable across runs, since the
// signature is a pure function of the request). The same prefix annotates
// the request's `service.process` span, so traces and error messages name a
// request with one token.

#ifndef MUDB_SRC_SERVICE_SERVICE_ERRORS_H_
#define MUDB_SRC_SERVICE_SERVICE_ERRORS_H_

#include <cstdint>
#include <string>

#include "src/convex/canonical.h"
#include "src/util/status.h"

namespace mudb::service {

/// Short stable prefix of a request signature ("req:9f3a6b21") — enough
/// bits to identify a request in logs without printing all 128.
std::string SignaturePrefix(const convex::CanonicalBodyKey& key);

/// Uniform reference to a session candidate ("candidate 5"), shared by
/// RankingSession's delta validation and grounding error paths.
std::string CandidateRef(uint64_t id);

/// Prepends "[req:<prefix>] " to the status message, keeping the code. OK
/// statuses pass through untouched. Callers annotate once, at the boundary
/// where the signature is known, not at every frame.
util::Status AnnotateRequestError(util::Status status,
                                  const convex::CanonicalBodyKey& signature);

}  // namespace mudb::service

#endif  // MUDB_SRC_SERVICE_SERVICE_ERRORS_H_
