"""Set-up probe: import the package, build the lazy tables a workload uses,
and exit where its first item would start.  run.py times this process from
start to exit; the time is the benchmark's setup_s.

    python3 perfbench/probe.py <workload>
"""

import sys

import source

if __name__ == "__main__":
    source.require_package()
    import workloads
    workloads.WORKLOADS[sys.argv[1]].setup()
