"""A fixed amount of pure-Python work, run as a fresh process.

    python3 -I perfbench/calibrate.py

The benchmark times this script from spawn to exit beside every job.
Its time tracks how fast the machine runs a fresh Python process at
that moment, and it shares no code with lambdakit (``-I`` keeps the
checkout off ``sys.path``), so no change to lambdakit can move it.
"""

total = 0
table = {}
words = []
for i in range(150000):
    total += i * i % 7
    table[i & 1023] = total
    if i % 64 == 0:
        words.append(str(total)[-3:])
text = "".join(words)
