"""``python -m repro.experiments`` — module entry point for the CLI.

Delegates straight to :func:`repro.experiments.cli.main`, so these are
equivalent::

    PYTHONPATH=src python -m repro.experiments table2 --dataset xkg
    PYTHONPATH=src python -m repro.experiments workload --scale small --executor block

Run ``python -m repro.experiments --help`` for every experiment name
(paper tables and figures plus the batch-serving ``workload`` command)
and their options.  Exit status is 0 on success, non-zero on argument or
experiment errors.
"""

import sys

from repro.experiments.cli import main

sys.exit(main())
