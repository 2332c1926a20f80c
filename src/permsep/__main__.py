import os
import sys

from .cli import main

try:
    code = main()
    sys.stdout.flush()  # inside the try, so a closed pipe is caught here
except BrokenPipeError:
    # the reader went away (e.g. `| head`): silence the flush at exit and
    # exit as a shell reports a process killed by SIGPIPE, 128 + 13
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    code = 141
sys.exit(code)
