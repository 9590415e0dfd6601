"""End-to-end performance ledger for the SX-4 reproduction.

Entry point: ``python3 perfledger/run.py --workload NAME --seed N
--seconds S --trace 0|1``.  See ``perfledger/README.md``.
"""
