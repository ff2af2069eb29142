# The lint_trace provenance audit: a schema-v2 trace whose provenance names a
# backend in engine::backend_names() lints clean, while one naming an
# unknown substrate fails the audit (non-zero exit) even though the trace
# itself satisfies every execution invariant.
set(base "${WORKDIR}/prov_base.trace")
set(good "${WORKDIR}/prov_good.trace")
set(bad "${WORKDIR}/prov_bad.trace")

execute_process(COMMAND ${CLI} run phase-king 4 1 0 1 1 1 --save-trace ${base}
                RESULT_VARIABLE rc1)
if(NOT rc1 EQUAL 0)
  message(FATAL_ERROR "run --save-trace failed: ${rc1}")
endif()

execute_process(COMMAND ${STAMP} ${base} ${good} sim sync 7 256
                RESULT_VARIABLE rc2)
if(NOT rc2 EQUAL 0)
  message(FATAL_ERROR "stamp_trace (known backend) failed: ${rc2}")
endif()
execute_process(COMMAND ${LINTER} ${good} RESULT_VARIABLE rc3
                OUTPUT_VARIABLE lint_out)
if(NOT rc3 EQUAL 0)
  message(FATAL_ERROR "lint_trace rejected a registry-known backend: ${rc3}")
endif()
if(NOT lint_out MATCHES "provenance")
  message(FATAL_ERROR "lint_trace did not report v2 provenance:\n${lint_out}")
endif()

execute_process(COMMAND ${STAMP} ${base} ${bad} warp-drive
                RESULT_VARIABLE rc4)
if(NOT rc4 EQUAL 0)
  message(FATAL_ERROR "stamp_trace (unknown backend) failed: ${rc4}")
endif()
execute_process(COMMAND ${LINTER} ${bad} RESULT_VARIABLE rc5
                ERROR_VARIABLE lint_err)
if(rc5 EQUAL 0)
  message(FATAL_ERROR
          "lint_trace accepted a trace claiming an unknown backend")
endif()
if(NOT lint_err MATCHES "unknown execution backend")
  message(FATAL_ERROR "missing unknown-backend diagnostic:\n${lint_err}")
endif()
