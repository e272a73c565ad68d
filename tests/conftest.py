import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))


def pytest_report_header(config):
    # pyproject's pythonpath = ["src"] comes ahead of PYTHONPATH, so this
    # names the checkout whose code the tests run against
    import connectobench

    return f"connectobench: {Path(connectobench.__file__).resolve().parent}"
