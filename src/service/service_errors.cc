#include "src/service/service_errors.h"

#include <cstdio>

namespace mudb::service {

std::string SignaturePrefix(const convex::CanonicalBodyKey& key) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "req:%08x",
                static_cast<unsigned>(key.fp.hi >> 32));
  return buf;
}

std::string CandidateRef(uint64_t id) {
  return "candidate " + std::to_string(id);
}

util::Status AnnotateRequestError(util::Status status,
                                  const convex::CanonicalBodyKey& signature) {
  if (status.ok()) return status;
  return util::Status(status.code(), "[" + SignaturePrefix(signature) + "] " +
                                         status.message());
}

}  // namespace mudb::service
