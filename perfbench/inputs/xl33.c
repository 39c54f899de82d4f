/* suite-xl xl33: units=6 chain=19 seed=71994 grammar v1 */
/* generated by repro fuzz (seed=15297897942117689988, grammar v1) */
int u0_fuel = 3331;
int u0_g0 = 7;
int u0_g1 = 24;
int u0_g2 = 43;
int u0_mem[8];
int (*u0_table[2])(int x, int depth);
int u0_fn0(int x, int depth);
int u0_fn1(int x, int depth);
int u0_fn2(int x, int depth);

int u0_fn0(int x, int depth)
{
    int a0 = 93;
    int i0 = 0;
    int i1 = 0;
    if (u0_fuel <= 0) { return x; }
    u0_fuel = u0_fuel - 1;
    if (depth <= 0) { return x + 5; }
    return !((x * 19));
    printf("%d\n", -(i0));
    switch ((((u0_g1 ^ u0_mem[((19) % 8 + 8) % 8])) % 4 + 4) % 4) {
    case 0:
        a0 = ((92 | 37) * ((a0) << 3));
        u0_g1 = u0_g1;
        a0 = ((u0_g2 | 49) + (u0_g0 * u0_g1));
        switch ((((86 | x)) % 4 + 4) % 4) {
        case 0:
            i1 = 0;
            while (i1 < 8) {
                u0_fuel = u0_fuel - 1;
                if (u0_fuel <= 0) { break; }
                putchar(48 + (((i1 * i1)) % 10 + 10) % 10);
                printf("%d\n", u0_mem[((depth) % 8 + 8) % 8]);
                i1 = i1 + 1;
            }
            a0 = ((u0_g0) % 7);
            i1 = 0;
            while (i1 < 4) {
                u0_fuel = u0_fuel - 1;
                if (u0_fuel <= 0) { break; }
                u0_g1 = (((u0_g0) >> 3) + ((x) >> 1));
                u0_g1 = u0_g2;
                i1 = i1 + 1;
            }
            break;
        case 1:
            u0_g2 = (((a0) / 3) ^ ((85) / 3));
            u0_g0 = ((65) % 13);
            if (((u0_mem[((u0_mem[((29) % 8 + 8) % 8]) % 8 + 8) % 8]) << 3) == toupper(u0_mem[((u0_g1) % 8 + 8) % 8])) {
                u0_g0 = (((94) % 3) - -6);
                printf("%d\n", (i0 & u0_mem[((u0_g0) % 8 + 8) % 8]));
                a0 = ((37 * a0) - (u0_g2 - u0_g0));
                u0_g2 = (((i0) % 5) | isdigit(x));
            }
            break;
        case 2:
            if (toupper(68) < u0_mem[((u0_mem[((u0_mem[((u0_g2) % 8 + 8) % 8]) % 8 + 8) % 8]) % 8 + 8) % 8]) {
                printf("%d\n", (7 ^ u0_g2));
                u0_g2 = 59;
                a0 = 35;
            } else {
                return 72;
                printf("%d\n", (u0_mem[((72) % 8 + 8) % 8] * i0));
                printf("%d\n", (92 - 38));
            }
            break;
        case 3:
            u0_g1 = x;
            u0_g1 = (toupper(i1) & (i0 * u0_g0));
            break;
        }
        break;
    case 1:
        a0 = u0_g0;
        break;
    case 2:
        u0_g2 = u0_g2;
        switch ((((i1 ^ 9)) % 3 + 3) % 3) {
        case 0:
            return abs(((8) % 13));
            if (((i1) % 5) <= -(u0_mem[((49) % 8 + 8) % 8]) || (74 ^ 87) >= abs(90)) {
                printf("%d\n", ((59) << 4));
                u0_g1 = (((66 - i0)) >> 4);
            } else {
                putchar(48 + ((u0_mem[((u0_mem[((x) % 8 + 8) % 8]) % 8 + 8) % 8]) % 10 + 10) % 10);
            }
            u0_g0 = ((u0_g1 * u0_mem[((i1) % 8 + 8) % 8]) - (u0_mem[((-5) % 8 + 8) % 8] & depth));
        case 1:
            putchar(48 + (((u0_g2 - i1)) % 10 + 10) % 10);
            i1 = 0;
            while (i1 < 3) {
                u0_fuel = u0_fuel - 1;
                if (u0_fuel <= 0) { break; }
                printf("%d\n", 19);
                i1 = i1 + 1;
            }
            u0_g2 = u0_g2;
            printf("%d\n", (u0_g0 ^ x));
            break;
        default:
            for (i1 = 0; i1 < 2; i1 = i1 + 1) {
                u0_fuel = u0_fuel - 1;
                if (u0_fuel <= 0) { break; }
                printf("%d\n", depth);
                putchar(48 + ((i0) % 10 + 10) % 10);
                putchar(48 + ((i1) % 10 + 10) % 10);
            }
            u0_g1 = u0_fn0(17, depth - 1);
            u0_g0 = u0_g1;
            u0_g2 = (-(i1) ^ (39 * depth));
            break;
        }
        return (((a0 ^ u0_mem[((u0_g0) % 8 + 8) % 8])) % 7);
        break;
    case 3:
        if (((u0_mem[((a0) % 8 + 8) % 8]) >> 2) > ((a0) >> 3)) {
            printf("%d\n", (u0_g0 - x));
            if ((u0_mem[((-2) % 8 + 8) % 8] + -9) <= u0_mem[((87) % 8 + 8) % 8]) {
                a0 = u0_table[((u0_mem[((12) % 8 + 8) % 8]) % 2 + 2) % 2]((depth | 63), depth - 1);
                u0_g2 = ((i0) << 2);
                printf("%d\n", ((i1) >> 3));
                putchar(48 + (((70 + 14)) % 10 + 10) % 10);
            } else {
                printf("%d\n", -(u0_mem[((u0_mem[((u0_g1) % 8 + 8) % 8]) % 8 + 8) % 8]));
                printf("%d\n", u0_g2);
            }
            printf("%d\n", ((u0_g0) % 13));
        }
        printf("%d\n", (83 - u0_g1));
        u0_g0 = ((a0 & 96) - toupper(i1));
        u0_g0 = (-(x) & (a0 - u0_g0));
        break;
    }
    u0_g2 = (-(96) & ((i1) % 7));
    return ((depth & depth) & u0_mem[((i0) % 8 + 8) % 8]);
}

int u0_fn1(int x, int depth)
{
    int a0 = 16;
    int a1 = -5;
    int a2 = 92;
    int i0 = 0;
    int i1 = 0;
    if (u0_fuel <= 0) { return x; }
    u0_fuel = u0_fuel - 1;
    if (depth <= 0) { return x + 44; }
    switch ((((i1 + a0)) % 2 + 2) % 2) {
    case 0:
        u0_mem[((u0_mem[((a2) % 8 + 8) % 8]) % 8 + 8) % 8] = (i1 & (a2 - u0_g2));
        if ((u0_g0 * x) > (45 ^ 80)) {
            printf("%d\n", abs(a1));
            u0_mem[((a2) % 8 + 8) % 8] = (((72 * 78)) / 13);
            return ((a1 + u0_g2) & (u0_mem[((93) % 8 + 8) % 8] * depth));
            switch (((-(u0_mem[((36) % 8 + 8) % 8])) % 2 + 2) % 2) {
            case 0:
                putchar(48 + ((((16) >> 2)) % 10 + 10) % 10);
                break;
            default:
                u0_g2 = (41 - (i0 | u0_mem[((i1) % 8 + 8) % 8]));
                a1 = (((25) / 3) * ((a0) / 3));
                break;
            }
        } else {
            putchar(48 + (((47 * -5)) % 10 + 10) % 10);
            u0_g2 = x;
        }
        u0_g2 = a1;
        break;
    case 1:
        if (a1 >= (88 + i0) || (u0_mem[((u0_mem[((u0_g1) % 8 + 8) % 8]) % 8 + 8) % 8] + x) > (depth & i1)) {
            return (-7 - a1);
        } else {
            if ((u0_g1 | x) < u0_g2) {
                u0_g0 = ((u0_mem[((83) % 8 + 8) % 8] ^ x) | 52);
                printf("%d\n", ((depth) / 13));
                putchar(48 + (((u0_mem[((u0_g1) % 8 + 8) % 8] + x)) % 10 + 10) % 10);
                printf("%d\n", x);
            }
        }
        a0 = -((u0_g2 | 53));
        break;
    }
    if (((depth) >> 1) != -(depth) || -6 == a2) {
        a2 = (((-1) / 3) * ((x) % 7));
        i1 = 0;
        while (i1 < 6) {
            u0_fuel = u0_fuel - 1;
            if (u0_fuel <= 0) { break; }
            break;
            a1 = u0_mem[((7) % 8 + 8) % 8];
            i1 = i1 + 1;
        }
        a1 = -((u0_mem[((a0) % 8 + 8) % 8] & u0_mem[((u0_mem[((63) % 8 + 8) % 8]) % 8 + 8) % 8]));
    }
    if ((a2 ^ a1) < (u0_g1 + a2) || i0 != !(72)) {
        i1 = 0;
        while (i1 < 6) {
            u0_fuel = u0_fuel - 1;
            if (u0_fuel <= 0) { break; }
            if (-(91) > a2) {
                printf("%d\n", ((u0_g0) % 5));
                printf("%d\n", toupper(50));
            }
            printf("%d\n", ((60) % 5));
            u0_g2 = u0_table[((i1) % 2 + 2) % 2]((59 * 25), depth - 1);
            printf("%d\n", -(i0));
            i1 = i1 + 1;
        }
        switch ((((3 + u0_mem[((-5) % 8 + 8) % 8])) % 3 + 3) % 3) {
        case 0:
            if ((a1 * u0_g0) >= (u0_g0 + u0_g0) && 19 < (58 * 51)) {
                u0_g1 = u0_fn2(x, depth - 1);
                a2 = ((i1 + a1) & i1);
            }
            break;
        case 1:
            if (-(25) <= (26 & i1)) {
                putchar(48 + ((a0) % 10 + 10) % 10);
            } else {
                u0_mem[((depth) % 8 + 8) % 8] = ((i0 ^ u0_g0) ^ ((73) >> 4));
                printf("%d\n", ((u0_g2) / 13));
            }
            switch ((((x * x)) % 3 + 3) % 3) {
            case 0:
                printf("%d\n", (a0 | 32));
                break;
            case 1:
                return (!(u0_mem[((a2) % 8 + 8) % 8]) ^ a1);
                printf("%d\n", (u0_g0 ^ 69));
                u0_g0 = ((u0_g0 * a0) & ((49) / 13));
                u0_g2 = 35;
                break;
            default:
                putchar(48 + ((a1) % 10 + 10) % 10);
                printf("%d\n", ((u0_mem[((x) % 8 + 8) % 8]) / 13));
                putchar(48 + (((44 - u0_g0)) % 10 + 10) % 10);
                printf("%d\n", (a2 | a2));
                break;
            }
            break;
        default:
            switch (((depth) % 2 + 2) % 2) {
            case 0:
                putchar(48 + ((abs(98)) % 10 + 10) % 10);
                a2 = a0;
                a1 = abs((i0 & 41));
                break;
            default:
                u0_g2 = ((16) % 7);
                a0 = u0_table[((u0_g2) % 2 + 2) % 2]((90 - -5), depth - 1);
                break;
            }
            break;
        }
        printf("%d\n", 65);
    } else {
        switch (((u0_g1) % 3 + 3) % 3) {
        case 0:
            for (i1 = 0; i1 < 6; i1 = i1 + 1) {
                u0_fuel = u0_fuel - 1;
                if (u0_fuel <= 0) { break; }
                printf("%d\n", x);
                u0_g2 = ((x * i1) | !(depth));
            }
            u0_g1 = abs(9);
        case 1:
            switch (((a2) % 3 + 3) % 3) {
            case 0:
                a2 = u0_fn0(!(31), depth - 1);
                printf("%d\n", 26);
                a1 = (u0_g2 + -6);
                a0 = u0_g0;
            case 1:
                printf("%d\n", a1);
                break;
            case 2:
                a1 = 7;
                break;
            }
            u0_g2 = ((u0_g1 - x) - toupper(depth));
            return (((a0) % 7) | i0);
            break;
        case 2:
            u0_mem[((u0_mem[((-2) % 8 + 8) % 8]) % 8 + 8) % 8] = ((!(76)) << 4);
            break;
        }
    }
    for (i1 = 0; i1 < 4; i1 = i1 + 1) {
        u0_fuel = u0_fuel - 1;
        if (u0_fuel <= 0) { break; }
        u0_g2 = (((u0_g1) / 7) + (x + u0_mem[((u0_mem[((u0_g2) % 8 + 8) % 8]) % 8 + 8) % 8]));
        switch ((((a1 + u0_g2)) % 4 + 4) % 4) {
        case 0:
            a2 = !((15 + 58));
            a0 = depth;
            putchar(48 + ((-7) % 10 + 10) % 10);
            return 60;
            break;
        case 1:
            switch ((((44 | i1)) % 2 + 2) % 2) {
            case 0:
                printf("%d\n", (u0_mem[((u0_g0) % 8 + 8) % 8] * a0));
                u0_g2 = u0_fn2(-(i1), depth - 1);
                a0 = x;
                break;
            default:
                a0 = -((x | 26));
                a1 = (54 & !(a0));
                return abs((x + u0_g2));
                break;
            }
            a1 = u0_mem[((u0_g0) % 8 + 8) % 8];
            i0 = 0;
            while (i0 < 6) {
                u0_fuel = u0_fuel - 1;
                if (u0_fuel <= 0) { break; }
                a1 = ((64 + u0_g0) + (50 * depth));
                a0 = u0_table[((96) % 2 + 2) % 2](u0_mem[((51) % 8 + 8) % 8], depth - 1);
                a1 = u0_fn2((depth - u0_mem[((9) % 8 + 8) % 8]), depth - 1);
                i0 = i0 + 1;
            }
            break;
        case 2:
            return ((depth * a1) + (89 ^ a2));
            break;
        default:
            printf("%d\n", a1);
            break;
        }
        u0_mem[((5) % 8 + 8) % 8] = u0_fn2((i1 * 46), depth - 1);
    }
    return (31 + ((a2) / 7));
}

int u0_fn2(int x, int depth)
{
    int a0 = 52;
    int a1 = 13;
    int a2 = 64;
    int i0 = 0;
    if (u0_fuel <= 0) { return x; }
    u0_fuel = u0_fuel - 1;
    if (depth <= 0) { return x + 60; }
    return u0_mem[((u0_g2) % 8 + 8) % 8];
    u0_g0 = (((u0_g2 + u0_mem[((a1) % 8 + 8) % 8])) / 3);
    u0_mem[((95) % 8 + 8) % 8] = u0_fn1(u0_g2, depth - 1);
    return (x & (i0 & i0));
}

int u0_entry(void)
{
    int a0 = 93;
    int a1 = 7;
    int a2 = 38;
    int i0 = 0;
    int i1 = 0;
    int i2 = 0;
    u0_table[0] = u0_fn0;
    u0_table[1] = u0_fn2;
    a1 = u0_fn2(a2, 4);
    a0 = u0_fn1(51, 4);
    a1 = u0_g0;
    putchar(48 + ((i0) % 10 + 10) % 10);
    i2 = 0;
    while (i2 < 2) {
        u0_fuel = u0_fuel - 1;
        if (u0_fuel <= 0) { break; }
        u0_g1 = 74;
        i2 = i2 + 1;
    }
    u0_mem[((u0_g0) % 8 + 8) % 8] = u0_fn1(abs(63), 4);
    printf("%d\n", u0_g0 + u0_g1 + u0_g2 + a0 + u0_mem[0]);
    return 0;
}

/* generated by repro fuzz (seed=3304880535230713465, grammar v1) */
int u1_fuel = 3177;
int u1_g0 = 45;
int u1_g1 = 44;
int u1_mem[8];
int (*u1_table[2])(int x, int depth);
int u1_fn0(int x, int depth);
int u1_fn1(int x, int depth);

int u1_fn0(int x, int depth)
{
    int a0 = -1;
    int a1 = 17;
    int a2 = 3;
    int i0 = 0;
    if (u1_fuel <= 0) { return x; }
    u1_fuel = u1_fuel - 1;
    if (depth <= 0) { return x + 60; }
    a2 = ((u1_mem[((i0) % 8 + 8) % 8] | 35) + (38 - u1_g1));
    for (i0 = 0; i0 < 7; i0 = i0 + 1) {
        u1_fuel = u1_fuel - 1;
        if (u1_fuel <= 0) { break; }
        u1_g0 = 71;
    }
    if (isdigit(u1_mem[((61) % 8 + 8) % 8]) > (depth ^ a0)) {
        if ((39 ^ u1_mem[((depth) % 8 + 8) % 8]) > (-5 + 88)) {
            a2 = u1_mem[((depth) % 8 + 8) % 8];
            for (i0 = 0; i0 < 4; i0 = i0 + 1) {
                u1_fuel = u1_fuel - 1;
                if (u1_fuel <= 0) { break; }
                a1 = ((23 + a0) ^ (61 + a1));
                printf("%d\n", (a0 * 41));
            }
            i0 = 0;
            while (i0 < 4) {
                u1_fuel = u1_fuel - 1;
                if (u1_fuel <= 0) { break; }
                putchar(48 + (((a0 * u1_mem[((44) % 8 + 8) % 8])) % 10 + 10) % 10);
                i0 = i0 + 1;
            }
        } else {
            if (depth < (27 ^ a0) || isdigit(u1_g0) <= u1_g0) {
                u1_g1 = (58 | (91 + 12));
            }
            for (i0 = 0; i0 < 3; i0 = i0 + 1) {
                u1_fuel = u1_fuel - 1;
                if (u1_fuel <= 0) { break; }
                a1 = u1_fn1(x, depth - 1);
                a0 = u1_table[((x) % 2 + 2) % 2]((x + u1_mem[((a2) % 8 + 8) % 8]), depth - 1);
                u1_g0 = (-(70) | ((depth) << 4));
                printf("%d\n", -(u1_mem[((x) % 8 + 8) % 8]));
            }
        }
        for (i0 = 0; i0 < 7; i0 = i0 + 1) {
            u1_fuel = u1_fuel - 1;
            if (u1_fuel <= 0) { break; }
            a1 = u1_fn1((43 * 51), depth - 1);
            u1_mem[((depth) % 8 + 8) % 8] = u1_table[((u1_mem[((i0) % 8 + 8) % 8]) % 2 + 2) % 2](((u1_g1) / 5), depth - 1);
        }
        if (depth > 84) {
            for (i0 = 0; i0 < 8; i0 = i0 + 1) {
                u1_fuel = u1_fuel - 1;
                if (u1_fuel <= 0) { break; }
                continue;
                a1 = (toupper(depth) & (x + a0));
                u1_g1 = depth;
            }
            a2 = u1_g1;
            a2 = (a1 ^ -(u1_g0));
        }
        if (11 != 30) {
            u1_g1 = ((37 & a2) & (a2 - -5));
            putchar(48 + ((!(a0)) % 10 + 10) % 10);
            a0 = u1_fn1(u1_mem[((62) % 8 + 8) % 8], depth - 1);
        } else {
            i0 = 0;
            while (i0 < 4) {
                u1_fuel = u1_fuel - 1;
                if (u1_fuel <= 0) { break; }
                putchar(48 + ((25) % 10 + 10) % 10);
                printf("%d\n", 72);
                printf("%d\n", i0);
                printf("%d\n", (a1 + i0));
                i0 = i0 + 1;
            }
            i0 = 0;
            while (i0 < 6) {
                u1_fuel = u1_fuel - 1;
                if (u1_fuel <= 0) { break; }
                a2 = u1_fn0(((72) << 1), depth - 1);
                i0 = i0 + 1;
            }
        }
    } else {
        return (u1_g0 ^ (a1 ^ x));
        u1_g1 = (u1_g1 & (41 | 18));
    }
    return 70;
}

int u1_fn1(int x, int depth)
{
    int a0 = -4;
    int a1 = 91;
    int i0 = 0;
    int i1 = 0;
    int i2 = 0;
    if (u1_fuel <= 0) { return x; }
    u1_fuel = u1_fuel - 1;
    if (depth <= 0) { return x + 86; }
    u1_g1 = ((depth + 81) * -(u1_mem[((x) % 8 + 8) % 8]));
    printf("%d\n", (depth | 7));
    switch ((((2 & u1_g1)) % 2 + 2) % 2) {
    case 0:
        a0 = (12 + ((83) << 1));
        break;
    default:
        u1_mem[((i0) % 8 + 8) % 8] = (i0 | u1_mem[((u1_g0) % 8 + 8) % 8]);
        u1_g0 = (-(i1) | (i2 * i1));
        a0 = -((u1_g0 ^ depth));
        u1_g1 = ((i0 ^ i1) ^ a1);
        break;
    }
    return (-(i1) + (u1_mem[((u1_g0) % 8 + 8) % 8] * a0));
}

int u1_entry(void)
{
    int a0 = 71;
    int a1 = 5;
    int a2 = 69;
    int i0 = 0;
    int i1 = 0;
    int i2 = 0;
    u1_table[0] = u1_fn0;
    u1_table[1] = u1_fn1;
    a1 = u1_fn0(a0, 3);
    a1 = u1_table[((i2) % 2 + 2) % 2]((a1 & u1_mem[((a0) % 8 + 8) % 8]), 3);
    a0 = a2;
    switch (((((i0) >> 2)) % 3 + 3) % 3) {
    case 0:
        u1_g1 = 80;
        u1_g0 = -(46);
        u1_mem[((a2) % 8 + 8) % 8] = ((u1_mem[((51) % 8 + 8) % 8]) >> 2);
        break;
    case 1:
        a2 = abs(isdigit(12));
    case 2:
        i2 = 0;
        while (i2 < 3) {
            u1_fuel = u1_fuel - 1;
            if (u1_fuel <= 0) { break; }
            i1 = 0;
            while (i1 < 5) {
                u1_fuel = u1_fuel - 1;
                if (u1_fuel <= 0) { break; }
                u1_mem[((i2) % 8 + 8) % 8] = (abs(84) ^ a1);
                u1_g0 = -((5 + 7));
                i1 = i1 + 1;
            }
            u1_mem[((i0) % 8 + 8) % 8] = ((-(i2)) >> 2);
            i2 = i2 + 1;
        }
        u1_mem[((u1_g1) % 8 + 8) % 8] = u1_fn1((60 ^ i1), 3);
        break;
    }
    if (((u1_mem[((a2) % 8 + 8) % 8]) / 13) >= !(a2)) {
        switch (((((56) / 3)) % 3 + 3) % 3) {
        case 0:
            u1_g0 = ((97 + a1) & (13 - u1_mem[((u1_g1) % 8 + 8) % 8]));
            a0 = ((i0 * i0) & -(66));
            i2 = 0;
            while (i2 < 6) {
                u1_fuel = u1_fuel - 1;
                if (u1_fuel <= 0) { break; }
                u1_g0 = u1_fn1(94, 3);
                i2 = i2 + 1;
            }
            u1_mem[((i2) % 8 + 8) % 8] = ((u1_mem[((u1_mem[((6) % 8 + 8) % 8]) % 8 + 8) % 8] & a2) - (u1_g1 * 67));
            break;
        case 1:
            u1_g1 = ((i0 | i0) ^ u1_g1);
            a0 = u1_table[((u1_g0) % 2 + 2) % 2]((i2 + a2), 3);
            u1_mem[((13) % 8 + 8) % 8] = -((i1 & 69));
            break;
        case 2:
            u1_g0 = ((50) >> 2);
            a2 = (u1_mem[((a1) % 8 + 8) % 8] + (17 ^ u1_g0));
            break;
        }
    } else {
        a1 = 80;
        switch (((u1_g0) % 4 + 4) % 4) {
        case 0:
            if (87 > (i1 & u1_g0)) {
                putchar(48 + ((86) % 10 + 10) % 10);
                a0 = u1_fn1(((u1_g1) % 5), 3);
                u1_g1 = (((a2) << 4) & u1_g0);
            } else {
                printf("%d\n", i2);
            }
            for (i2 = 0; i2 < 5; i2 = i2 + 1) {
                u1_fuel = u1_fuel - 1;
                if (u1_fuel <= 0) { break; }
                putchar(48 + (((a0 * 10)) % 10 + 10) % 10);
                a2 = ((u1_mem[((a1) % 8 + 8) % 8] | i1) ^ (u1_mem[((84) % 8 + 8) % 8] - u1_mem[((93) % 8 + 8) % 8]));
                u1_mem[((u1_g1) % 8 + 8) % 8] = ((isdigit(i0)) / 3);
            }
            if ((0 - u1_mem[((a1) % 8 + 8) % 8]) <= !(u1_mem[((35) % 8 + 8) % 8])) {
                printf("%d\n", (u1_g1 + -5));
                a0 = abs((a2 * 98));
                putchar(48 + ((a2) % 10 + 10) % 10);
                u1_g1 = (((42) / 13) ^ (33 | 56));
            } else {
                u1_mem[((83) % 8 + 8) % 8] = (i1 - 59);
            }
            break;
        case 1:
            printf("%d\n", ((32) % 13));
            u1_g0 = u1_fn0(i0, 3);
            i2 = 0;
            while (i2 < 3) {
                u1_fuel = u1_fuel - 1;
                if (u1_fuel <= 0) { break; }
                u1_mem[((a1) % 8 + 8) % 8] = a1;
                a1 = 87;
                a0 = ((86 ^ a0) - a2);
                i2 = i2 + 1;
            }
            i2 = 0;
            while (i2 < 3) {
                u1_fuel = u1_fuel - 1;
                if (u1_fuel <= 0) { break; }
                putchar(48 + ((u1_mem[((84) % 8 + 8) % 8]) % 10 + 10) % 10);
                u1_g0 = u1_fn0((u1_g1 * u1_mem[((3) % 8 + 8) % 8]), 3);
                u1_mem[((i1) % 8 + 8) % 8] = (-(98) & (0 + 91));
                i2 = i2 + 1;
            }
            break;
        case 2:
            u1_g0 = (u1_mem[((6) % 8 + 8) % 8] - !(i1));
            i2 = 0;
            while (i2 < 5) {
                u1_fuel = u1_fuel - 1;
                if (u1_fuel <= 0) { break; }
                a2 = u1_fn0((u1_g1 ^ i0), 3);
                i2 = i2 + 1;
            }
            a2 = u1_fn0(11, 3);
        case 3:
            a2 = i1;
            putchar(48 + ((-(-8)) % 10 + 10) % 10);
            a2 = u1_table[((55) % 2 + 2) % 2](isdigit(i0), 3);
            break;
        }
        if (abs(u1_mem[((51) % 8 + 8) % 8]) <= a1) {
            a1 = (-(i2) ^ i1);
            a0 = i0;
        } else {
            a1 = (abs(-5) | (i1 * 61));
        }
    }
    printf("%d\n", u1_g0 + u1_g1 + a0 + u1_mem[0]);
    return 0;
}

/* generated by repro fuzz (seed=5749915140094140649, grammar v1) */
int u2_fuel = 1511;
int u2_g0 = 3;
int u2_g1 = 55;
int u2_g2 = 92;
int u2_g3 = 69;
int u2_mem[16];
int (*u2_table[2])(int x, int depth);
int u2_fn0(int x, int depth);
int u2_fn1(int x, int depth);
int u2_fn2(int x, int depth);
int u2_fn3(int x, int depth);

int u2_fn0(int x, int depth)
{
    int a0 = 28;
    int a1 = 83;
    int i0 = 0;
    if (u2_fuel <= 0) { return x; }
    u2_fuel = u2_fuel - 1;
    if (depth <= 0) { return x + 84; }
    a0 = !(15);
    a0 = ((u2_mem[((a0) % 16 + 16) % 16] | -3) ^ 90);
    a1 = -8;
    return (((77 * x)) % 3);
}

int u2_fn1(int x, int depth)
{
    int a0 = 3;
    int a1 = 42;
    int i0 = 0;
    int i1 = 0;
    int i2 = 0;
    if (u2_fuel <= 0) { return x; }
    u2_fuel = u2_fuel - 1;
    if (depth <= 0) { return x + 90; }
    u2_g1 = 64;
    if ((a1 & u2_g2) == u2_g2) {
        return abs((i0 + 0));
    } else {
        u2_g0 = ((u2_g2 | u2_g1) + ((u2_g2) % 5));
        a0 = ((x) / 7);
    }
    u2_g2 = ((u2_g1) % 13);
    return u2_g0;
}

int u2_fn2(int x, int depth)
{
    int a0 = 6;
    int a1 = 66;
    int a2 = 81;
    int i0 = 0;
    int i1 = 0;
    int i2 = 0;
    if (u2_fuel <= 0) { return x; }
    u2_fuel = u2_fuel - 1;
    if (depth <= 0) { return x + 84; }
    switch (((toupper(u2_mem[((u2_mem[((37) % 16 + 16) % 16]) % 16 + 16) % 16])) % 2 + 2) % 2) {
    case 0:
        if (u2_mem[((i0) % 16 + 16) % 16] == ((a2) % 5)) {
            u2_g2 = ((a2 - 41) | (u2_mem[((-2) % 16 + 16) % 16] | 53));
            if ((96 & 35) == -(x)) {
                u2_g0 = (((i1) << 1) ^ (90 * a1));
            } else {
                return (i1 - (13 - depth));
                return 4;
            }
            a0 = u2_fn0((99 + u2_g1), depth - 1);
            switch ((((u2_g1 & 59)) % 4 + 4) % 4) {
            case 0:
                a1 = (-(39) * u2_g0);
                putchar(48 + (((a0 * 9)) % 10 + 10) % 10);
                putchar(48 + (((-8 ^ u2_mem[((i2) % 16 + 16) % 16])) % 10 + 10) % 10);
                putchar(48 + (((69 & a0)) % 10 + 10) % 10);
                break;
            case 1:
                u2_g0 = (u2_g3 + -(u2_g3));
                break;
            case 2:
                u2_g0 = (-(i1) & (i1 & depth));
                printf("%d\n", depth);
                u2_g1 = u2_mem[((47) % 16 + 16) % 16];
                break;
            default:
                u2_mem[((u2_g0) % 16 + 16) % 16] = u2_fn3((55 * a2), depth - 1);
                u2_g3 = (!(u2_mem[((u2_mem[((89) % 16 + 16) % 16]) % 16 + 16) % 16]) | ((a0) / 13));
                a0 = -5;
                break;
            }
        } else {
            putchar(48 + ((((u2_mem[((a1) % 16 + 16) % 16]) / 5)) % 10 + 10) % 10);
            a0 = (((i1 & 22)) >> 2);
            a1 = ((((a2) >> 1)) % 7);
        }
        u2_g3 = (-6 + (u2_g0 * i1));
        i2 = 0;
        while (i2 < 5) {
            u2_fuel = u2_fuel - 1;
            if (u2_fuel <= 0) { break; }
            if (((u2_g3) % 5) == u2_g0) {
                u2_mem[((u2_g3) % 16 + 16) % 16] = 75;
            }
            i1 = 0;
            while (i1 < 3) {
                u2_fuel = u2_fuel - 1;
                if (u2_fuel <= 0) { break; }
                putchar(48 + (((depth + a2)) % 10 + 10) % 10);
                printf("%d\n", ((i2) / 7));
                u2_mem[((u2_g3) % 16 + 16) % 16] = -(a2);
                i1 = i1 + 1;
            }
            i1 = 0;
            while (i1 < 2) {
                u2_fuel = u2_fuel - 1;
                if (u2_fuel <= 0) { break; }
                a2 = ((abs(u2_g0)) << 4);
                u2_mem[((x) % 16 + 16) % 16] = u2_g1;
                printf("%d\n", -(i0));
                i1 = i1 + 1;
            }
            printf("%d\n", (71 | 34));
            i2 = i2 + 1;
        }
    case 1:
        u2_g2 = ((a2 + u2_g0) - (34 * 79));
        for (i2 = 0; i2 < 4; i2 = i2 + 1) {
            u2_fuel = u2_fuel - 1;
            if (u2_fuel <= 0) { break; }
            switch ((((94 & i2)) % 4 + 4) % 4) {
            case 0:
                u2_mem[((u2_g2) % 16 + 16) % 16] = ((u2_g2 * 30) - (70 & -1));
                break;
            case 1:
                putchar(48 + ((((i1) % 7)) % 10 + 10) % 10);
                return u2_g3;
                printf("%d\n", (11 | u2_mem[((66) % 16 + 16) % 16]));
                putchar(48 + (((a0 | 78)) % 10 + 10) % 10);
            case 2:
                putchar(48 + (((u2_g2 ^ 29)) % 10 + 10) % 10);
                u2_g1 = u2_fn3((76 * 90), depth - 1);
                return u2_g1;
                break;
            case 3:
                printf("%d\n", (u2_g2 ^ 70));
                a0 = 0;
                u2_g1 = ((((i2) % 3)) / 7);
                break;
            }
            switch (((i0) % 2 + 2) % 2) {
            case 0:
                u2_mem[((21) % 16 + 16) % 16] = ((u2_mem[((69) % 16 + 16) % 16] & u2_g0) ^ 72);
                break;
            case 1:
                printf("%d\n", (u2_g0 * u2_g1));
                return 33;
                u2_mem[((92) % 16 + 16) % 16] = ((((40) / 5)) << 3);
                return (x & ((a0) << 3));
                break;
            }
            if (((a1) << 3) <= (97 * x)) {
                putchar(48 + ((((35) << 3)) % 10 + 10) % 10);
                u2_g1 = u2_fn1((u2_mem[((depth) % 16 + 16) % 16] - u2_mem[((a2) % 16 + 16) % 16]), depth - 1);
                return u2_mem[((u2_g1) % 16 + 16) % 16];
            } else {
                printf("%d\n", -(a1));
            }
        }
        a2 = -((45 * i2));
        break;
    }
    a0 = depth;
    a2 = (toupper(u2_g0) ^ ((a1) >> 4));
    return (-(-7) + ((u2_mem[((u2_g1) % 16 + 16) % 16]) << 3));
}

int u2_fn3(int x, int depth)
{
    int a0 = 84;
    int a1 = 24;
    int a2 = 50;
    int i0 = 0;
    int i1 = 0;
    int i2 = 0;
    if (u2_fuel <= 0) { return x; }
    u2_fuel = u2_fuel - 1;
    if (depth <= 0) { return x + 47; }
    u2_g1 = u2_mem[((a0) % 16 + 16) % 16];
    u2_g3 = ((20 & depth) | isdigit(u2_g1));
    a0 = u2_fn3(24, depth - 1);
    switch ((((-2 | 18)) % 4 + 4) % 4) {
    case 0:
        a0 = ((x - depth) ^ u2_g2);
        return (((2) << 4) | x);
        a2 = ((i1 - u2_mem[((a0) % 16 + 16) % 16]) | (a0 | i1));
    case 1:
        u2_g2 = ((!(43)) >> 2);
        u2_mem[((u2_g1) % 16 + 16) % 16] = u2_table[((u2_mem[((i0) % 16 + 16) % 16]) % 2 + 2) % 2]((a1 ^ 5), depth - 1);
        a0 = u2_mem[((i0) % 16 + 16) % 16];
        putchar(48 + (((u2_mem[((u2_mem[((a1) % 16 + 16) % 16]) % 16 + 16) % 16] - i0)) % 10 + 10) % 10);
        break;
    case 2:
        return x;
        if (i2 != !(u2_g1) || ((a2) << 1) != (84 + x)) {
            u2_g1 = (((91 - 83)) % 13);
            putchar(48 + ((15) % 10 + 10) % 10);
            u2_g3 = (u2_g2 + 73);
        } else {
            if (((89) << 1) <= i0) {
                putchar(48 + ((isdigit(63)) % 10 + 10) % 10);
                u2_mem[((80) % 16 + 16) % 16] = u2_g0;
                putchar(48 + ((!(u2_g0)) % 10 + 10) % 10);
                putchar(48 + (((30 & a0)) % 10 + 10) % 10);
            } else {
                u2_g2 = u2_fn1((u2_g3 | 88), depth - 1);
                u2_g3 = 3;
                return (((1) / 5) & (i0 * 9));
                printf("%d\n", toupper(37));
            }
            i2 = 0;
            while (i2 < 7) {
                u2_fuel = u2_fuel - 1;
                if (u2_fuel <= 0) { break; }
                u2_g2 = ((a2 + u2_g0) & (85 | a1));
                u2_g1 = -(((42) % 13));
                i2 = i2 + 1;
            }
        }
        a0 = -((32 ^ i1));
        a1 = ((-(i1)) << 4);
        break;
    default:
        if ((i2 * u2_g3) <= u2_mem[((30) % 16 + 16) % 16] && (45 * 10) == ((61) >> 2)) {
            if (a1 > (u2_g1 ^ i1) && (depth ^ x) == (16 * 11)) {
                u2_mem[((93) % 16 + 16) % 16] = -(i2);
            }
            a1 = u2_fn0(((15) % 3), depth - 1);
        } else {
            u2_g3 = 41;
        }
        i2 = 0;
        while (i2 < 8) {
            u2_fuel = u2_fuel - 1;
            if (u2_fuel <= 0) { break; }
            u2_mem[((u2_mem[((i2) % 16 + 16) % 16]) % 16 + 16) % 16] = (!(depth) - (i1 * u2_g0));
            switch (((27) % 4 + 4) % 4) {
            case 0:
                u2_g0 = 26;
                u2_g3 = ((a1 ^ i1) * (depth & a1));
                break;
            case 1:
                a1 = a0;
                printf("%d\n", !(33));
                return (76 * ((i2) >> 4));
            case 2:
                printf("%d\n", 19);
                a0 = !((u2_g1 | u2_mem[((8) % 16 + 16) % 16]));
                u2_g3 = i2;
            default:
                u2_mem[((a1) % 16 + 16) % 16] = 1;
                a1 = u2_fn0((67 + 14), depth - 1);
                break;
            }
            break;
            i1 = 0;
            while (i1 < 2) {
                u2_fuel = u2_fuel - 1;
                if (u2_fuel <= 0) { break; }
                printf("%d\n", u2_mem[((i2) % 16 + 16) % 16]);
                break;
                printf("%d\n", (i1 * 0));
                i1 = i1 + 1;
            }
            i2 = i2 + 1;
        }
        u2_g0 = u2_fn0((u2_mem[((a2) % 16 + 16) % 16] | i0), depth - 1);
        break;
    }
    return -(a2);
}

int u2_entry(void)
{
    int a0 = 12;
    int a1 = 95;
    int i0 = 0;
    int i1 = 0;
    int i2 = 0;
    u2_table[0] = u2_fn2;
    u2_table[1] = u2_fn2;
    a0 = u2_table[((u2_g2) % 2 + 2) % 2](9, 4);
    a0 = u2_table[((u2_g1) % 2 + 2) % 2]((u2_mem[((u2_mem[((u2_g2) % 16 + 16) % 16]) % 16 + 16) % 16] & a0), 4);
    a0 = u2_fn2((i1 * 23), 4);
    a1 = u2_fn1(a1, 4);
    u2_g3 = (u2_g1 & 37);
    u2_g0 = (((52) << 2) ^ ((48) / 13));
    printf("%d\n", (u2_g3 ^ u2_mem[((u2_g1) % 16 + 16) % 16]));
    printf("%d\n", u2_g0 + u2_g1 + u2_g2 + u2_g3 + a0 + u2_mem[0]);
    return 0;
}

/* generated by repro fuzz (seed=13228851663658844820, grammar v1) */
int u3_fuel = 4434;
int u3_g0 = 59;
int u3_g1 = 81;
int u3_g2 = 27;
int u3_mem[8];
int (*u3_table[4])(int x, int depth);
int u3_fn0(int x, int depth);
int u3_fn1(int x, int depth);
int u3_fn2(int x, int depth);
int u3_fn3(int x, int depth);

int u3_fn0(int x, int depth)
{
    int a0 = 54;
    int i0 = 0;
    int i1 = 0;
    int i2 = 0;
    if (u3_fuel <= 0) { return x; }
    u3_fuel = u3_fuel - 1;
    if (depth <= 0) { return x + 25; }
    switch (((((u3_g1) % 13)) % 4 + 4) % 4) {
    case 0:
        putchar(48 + ((i1) % 10 + 10) % 10);
        break;
    case 1:
        u3_g2 = (!(u3_g0) - (a0 * x));
        u3_mem[((98) % 8 + 8) % 8] = u3_fn0((u3_g1 - i0), depth - 1);
        u3_g2 = u3_table[((depth) % 4 + 4) % 4](-(33), depth - 1);
        break;
    case 2:
        if ((u3_g1 * 80) != (depth | u3_g0)) {
            if ((u3_mem[((i1) % 8 + 8) % 8] & u3_mem[((u3_mem[((x) % 8 + 8) % 8]) % 8 + 8) % 8]) <= (depth + u3_mem[((85) % 8 + 8) % 8])) {
                printf("%d\n", (i0 ^ 7));
                u3_g0 = (i0 | u3_g2);
            }
            switch ((((95 & i0)) % 2 + 2) % 2) {
            case 0:
                putchar(48 + (((67 & x)) % 10 + 10) % 10);
                u3_g1 = isdigit((i1 | i0));
                putchar(48 + (((u3_g1 + u3_g1)) % 10 + 10) % 10);
                break;
            case 1:
                printf("%d\n", i2);
                break;
            }
        } else {
            u3_g2 = u3_fn1((i0 * i2), depth - 1);
            u3_g2 = (51 * ((-3) % 7));
            switch (((depth) % 3 + 3) % 3) {
            case 0:
                putchar(48 + ((-(u3_g0)) % 10 + 10) % 10);
                return ((u3_g2 + 94) | (3 * u3_g0));
                a0 = u3_fn0((a0 * 70), depth - 1);
                break;
            case 1:
                u3_g2 = ((u3_g1 * i1) * (u3_g2 - 21));
                break;
            default:
                u3_g2 = u3_fn3(u3_g0, depth - 1);
                putchar(48 + (((86 - 17)) % 10 + 10) % 10);
                break;
            }
            a0 = u3_mem[((i0) % 8 + 8) % 8];
        }
        if (-(u3_mem[((i0) % 8 + 8) % 8]) > u3_mem[((0) % 8 + 8) % 8]) {
            if ((u3_g0 * x) < depth) {
                u3_mem[((42) % 8 + 8) % 8] = (5 - -8);
                putchar(48 + (((28 & 19)) % 10 + 10) % 10);
                u3_mem[((u3_mem[((u3_mem[((depth) % 8 + 8) % 8]) % 8 + 8) % 8]) % 8 + 8) % 8] = ((97 - -5) - u3_g0);
            } else {
                u3_mem[((a0) % 8 + 8) % 8] = u3_g1;
                u3_g0 = (u3_g0 ^ (61 + x));
            }
            putchar(48 + ((92) % 10 + 10) % 10);
            return depth;
        } else {
            a0 = (i1 + (69 - i0));
            u3_g0 = -(((u3_mem[((a0) % 8 + 8) % 8]) % 7));
            u3_g1 = (66 ^ (i1 + 94));
            putchar(48 + (((22 ^ x)) % 10 + 10) % 10);
        }
        u3_g1 = (i1 - i2);
        break;
    default:
        u3_g1 = i0;
        u3_g2 = u3_mem[((i0) % 8 + 8) % 8];
        if (isdigit(4) >= i1 || -(80) >= (i0 ^ i1)) {
            u3_g1 = ((a0 ^ x) * 17);
            u3_g1 = (!(u3_g2) | !(-1));
            printf("%d\n", -(i2));
            i2 = 0;
            while (i2 < 5) {
                u3_fuel = u3_fuel - 1;
                if (u3_fuel <= 0) { break; }
                u3_g1 = (((u3_g1 | 25)) >> 2);
                i2 = i2 + 1;
            }
        } else {
            u3_g0 = u3_fn3((i2 | i2), depth - 1);
            u3_g0 = ((x * i0) - (depth ^ i0));
        }
        break;
    }
    u3_g0 = 72;
    return 8;
}

int u3_fn1(int x, int depth)
{
    int a0 = 43;
    int a1 = 79;
    int a2 = 65;
    int i0 = 0;
    int i1 = 0;
    if (u3_fuel <= 0) { return x; }
    u3_fuel = u3_fuel - 1;
    if (depth <= 0) { return x + 37; }
    u3_mem[((26) % 8 + 8) % 8] = (11 * (u3_mem[((a2) % 8 + 8) % 8] ^ 82));
    a0 = i1;
    u3_g1 = u3_table[((a1) % 4 + 4) % 4](((87) >> 2), depth - 1);
    a1 = (toupper(32) + x);
    return u3_mem[((u3_g0) % 8 + 8) % 8];
}

int u3_fn2(int x, int depth)
{
    int a0 = 7;
    int i0 = 0;
    int i1 = 0;
    int i2 = 0;
    if (u3_fuel <= 0) { return x; }
    u3_fuel = u3_fuel - 1;
    if (depth <= 0) { return x + 32; }
    u3_mem[((38) % 8 + 8) % 8] = (8 * (u3_g1 & depth));
    if (u3_g0 < (u3_mem[((u3_g1) % 8 + 8) % 8] ^ u3_mem[((52) % 8 + 8) % 8]) && ((a0) % 3) <= -(i1)) {
        putchar(48 + ((i2) % 10 + 10) % 10);
        u3_g0 = u3_mem[((x) % 8 + 8) % 8];
        u3_g0 = (50 * -(depth));
        if (((a0) / 3) > ((i2) % 3) || 98 >= 11) {
            for (i2 = 0; i2 < 5; i2 = i2 + 1) {
                u3_fuel = u3_fuel - 1;
                if (u3_fuel <= 0) { break; }
                u3_g1 = u3_mem[((u3_g0) % 8 + 8) % 8];
                u3_g2 = u3_fn1(x, depth - 1);
                printf("%d\n", ((a0) / 13));
            }
            u3_g0 = u3_mem[((34) % 8 + 8) % 8];
        } else {
            i2 = 0;
            while (i2 < 8) {
                u3_fuel = u3_fuel - 1;
                if (u3_fuel <= 0) { break; }
                u3_mem[((41) % 8 + 8) % 8] = u3_fn2((i1 ^ 11), depth - 1);
                a0 = (((i2) / 7) - (u3_g1 | x));
                i2 = i2 + 1;
            }
        }
    }
    if (u3_mem[((u3_mem[((i0) % 8 + 8) % 8]) % 8 + 8) % 8] >= (x - depth)) {
        if ((34 * u3_g0) <= ((4) << 1)) {
            u3_g1 = a0;
            if ((u3_mem[((i1) % 8 + 8) % 8] ^ 71) == u3_mem[((i2) % 8 + 8) % 8] && 2 < depth) {
                u3_mem[((u3_mem[((85) % 8 + 8) % 8]) % 8 + 8) % 8] = ((a0) % 7);
                printf("%d\n", ((u3_g2) >> 3));
                u3_g2 = !((i2 & 24));
            }
        }
        a0 = (95 + (u3_mem[((i2) % 8 + 8) % 8] | 45));
        if (u3_g1 == (i0 & i2)) {
            return i1;
            i2 = 0;
            while (i2 < 3) {
                u3_fuel = u3_fuel - 1;
                if (u3_fuel <= 0) { break; }
                u3_g1 = (depth & x);
                putchar(48 + ((isdigit(a0)) % 10 + 10) % 10);
                u3_g0 = !((a0 - depth));
                a0 = u3_g2;
                i2 = i2 + 1;
            }
        }
    } else {
        u3_g1 = ((-(34)) / 7);
        return u3_g2;
        for (i2 = 0; i2 < 3; i2 = i2 + 1) {
            u3_fuel = u3_fuel - 1;
            if (u3_fuel <= 0) { break; }
            if (i2 <= 71) {
                continue;
            }
        }
        u3_g1 = ((-4 ^ u3_g1) | 22);
    }
    printf("%d\n", (u3_g0 * u3_g1));
    return (((u3_g2) >> 1) | (u3_g0 * depth));
}

int u3_fn3(int x, int depth)
{
    int a0 = 49;
    int i0 = 0;
    int i1 = 0;
    if (u3_fuel <= 0) { return x; }
    u3_fuel = u3_fuel - 1;
    if (depth <= 0) { return x + 60; }
    u3_mem[((28) % 8 + 8) % 8] = u3_g0;
    putchar(48 + ((((x) << 3)) % 10 + 10) % 10);
    return 18;
    return 51;
    return a0;
}

int u3_entry(void)
{
    int a0 = -8;
    int a1 = 56;
    int a2 = 36;
    int i0 = 0;
    int i1 = 0;
    u3_table[0] = u3_fn2;
    u3_table[1] = u3_fn0;
    u3_table[2] = u3_fn3;
    u3_table[3] = u3_fn1;
    a0 = u3_fn0(((u3_g2) >> 2), 2);
    a2 = u3_table[((72) % 4 + 4) % 4]((u3_g1 ^ 62), 2);
    a2 = u3_fn1((u3_mem[((a1) % 8 + 8) % 8] | u3_g1), 2);
    a0 = u3_fn1(((-3) % 13), 2);
    a2 = (-(i1) & (38 + u3_g2));
    printf("%d\n", ((42) % 13));
    u3_mem[((19) % 8 + 8) % 8] = ((i0) % 13);
    u3_g0 = u3_mem[((29) % 8 + 8) % 8];
    printf("%d\n", u3_g0 + u3_g1 + u3_g2 + a0 + u3_mem[0]);
    return 0;
}

/* generated by repro fuzz (seed=16470035311309891746, grammar v1) */
int u4_fuel = 3285;
int u4_g0 = 60;
int u4_g1 = 9;
int u4_g2 = 82;
int u4_mem[8];
int (*u4_table[2])(int x, int depth);
int u4_fn0(int x, int depth);
int u4_fn1(int x, int depth);
int u4_fn2(int x, int depth);
int u4_fn3(int x, int depth);

int u4_fn0(int x, int depth)
{
    int a0 = 0;
    int a1 = 77;
    int i0 = 0;
    if (u4_fuel <= 0) { return x; }
    u4_fuel = u4_fuel - 1;
    if (depth <= 0) { return x + -4; }
    switch (((u4_mem[((x) % 8 + 8) % 8]) % 4 + 4) % 4) {
    case 0:
        u4_g0 = ((u4_g2 - u4_g0) | isdigit(i0));
        if ((u4_mem[((12) % 8 + 8) % 8] * 60) == (78 * a0)) {
            u4_mem[((79) % 8 + 8) % 8] = 46;
        } else {
            for (i0 = 0; i0 < 6; i0 = i0 + 1) {
                u4_fuel = u4_fuel - 1;
                if (u4_fuel <= 0) { break; }
                u4_g2 = x;
                printf("%d\n", isdigit(u4_mem[((a1) % 8 + 8) % 8]));
                u4_g1 = u4_table[((50) % 2 + 2) % 2]((a1 | 25), depth - 1);
            }
            if ((u4_g1 & x) > (u4_g2 - a0)) {
                u4_g2 = toupper(!(x));
                return x;
                u4_g1 = ((x + u4_g1) - !(u4_g0));
            }
            u4_g0 = 48;
            u4_g1 = i0;
        }
        i0 = 0;
        while (i0 < 5) {
            u4_fuel = u4_fuel - 1;
            if (u4_fuel <= 0) { break; }
            printf("%d\n", ((u4_mem[((34) % 8 + 8) % 8]) / 5));
            i0 = i0 + 1;
        }
        u4_g0 = u4_fn0(-(0), depth - 1);
        break;
    case 1:
        for (i0 = 0; i0 < 5; i0 = i0 + 1) {
            u4_fuel = u4_fuel - 1;
            if (u4_fuel <= 0) { break; }
            switch ((((94 - 58)) % 2 + 2) % 2) {
            case 0:
                u4_g1 = -(a0);
                printf("%d\n", -1);
                return a0;
                break;
            case 1:
                putchar(48 + ((u4_g0) % 10 + 10) % 10);
                printf("%d\n", u4_g1);
                u4_mem[((u4_g0) % 8 + 8) % 8] = !((63 | a0));
                break;
            }
            continue;
            if ((a0 ^ a1) != (depth * a1)) {
                return 27;
            }
            u4_mem[((u4_mem[((u4_g1) % 8 + 8) % 8]) % 8 + 8) % 8] = ((92 * a1) & x);
        }
        u4_g0 = u4_g0;
        u4_g2 = ((66) >> 2);
        break;
    case 2:
        i0 = 0;
        while (i0 < 7) {
            u4_fuel = u4_fuel - 1;
            if (u4_fuel <= 0) { break; }
            switch ((((x + 93)) % 4 + 4) % 4) {
            case 0:
                a0 = ((29 * -2) ^ ((x) % 7));
                printf("%d\n", i0);
                break;
            case 1:
                u4_g2 = toupper(x);
                u4_g1 = u4_fn1((i0 & u4_mem[((79) % 8 + 8) % 8]), depth - 1);
                return (((u4_g1 - u4_g2)) >> 1);
                return ((i0 + 90) * (u4_mem[((87) % 8 + 8) % 8] & -9));
                break;
            case 2:
                u4_mem[((x) % 8 + 8) % 8] = ((depth ^ x) + -(13));
                printf("%d\n", ((19) << 1));
                printf("%d\n", abs(u4_g1));
                u4_g1 = ((u4_g0 * 46) + 92);
                break;
            case 3:
                printf("%d\n", (65 & x));
                break;
            }
            i0 = i0 + 1;
        }
        break;
    case 3:
        u4_g0 = u4_g2;
        switch (((a1) % 3 + 3) % 3) {
        case 0:
            return u4_g1;
            i0 = 0;
            while (i0 < 6) {
                u4_fuel = u4_fuel - 1;
                if (u4_fuel <= 0) { break; }
                u4_g2 = (46 + (u4_g0 - 74));
                printf("%d\n", (u4_g1 * 14));
                i0 = i0 + 1;
            }
            if (45 != (0 & -5)) {
                a0 = 26;
                printf("%d\n", abs(a1));
                u4_g0 = u4_mem[((84) % 8 + 8) % 8];
            } else {
                a1 = (99 ^ -(a1));
            }
            break;
        case 1:
            a0 = u4_table[((i0) % 2 + 2) % 2](a0, depth - 1);
            a0 = -((u4_g1 + u4_mem[((u4_g0) % 8 + 8) % 8]));
            for (i0 = 0; i0 < 5; i0 = i0 + 1) {
                u4_fuel = u4_fuel - 1;
                if (u4_fuel <= 0) { break; }
                u4_g2 = 93;
                printf("%d\n", (33 + u4_g2));
                printf("%d\n", !(a1));
                a1 = -(((a0) % 5));
            }
            break;
        default:
            if (-(63) < !(u4_g1)) {
                u4_g1 = (58 + ((x) << 1));
            } else {
                a0 = u4_fn1((x + u4_g2), depth - 1);
            }
            switch ((((u4_g0 + u4_g0)) % 3 + 3) % 3) {
            case 0:
                putchar(48 + ((37) % 10 + 10) % 10);
                a0 = u4_table[((78) % 2 + 2) % 2]((19 & 8), depth - 1);
                u4_g2 = (((62) / 3) + (48 | 71));
                break;
            case 1:
                u4_g1 = ((39 - u4_mem[((22) % 8 + 8) % 8]) & (38 - u4_mem[((17) % 8 + 8) % 8]));
                break;
            case 2:
                u4_g0 = 57;
                u4_g1 = 68;
                printf("%d\n", 98);
                break;
            }
            break;
        }
        i0 = 0;
        while (i0 < 7) {
            u4_fuel = u4_fuel - 1;
            if (u4_fuel <= 0) { break; }
            return ((38 ^ i0) | ((u4_g1) >> 2));
            i0 = i0 + 1;
        }
        putchar(48 + ((-(42)) % 10 + 10) % 10);
        break;
    }
    i0 = 0;
    while (i0 < 5) {
        u4_fuel = u4_fuel - 1;
        if (u4_fuel <= 0) { break; }
        u4_g2 = ((a1 - 40) - (u4_g1 * a0));
        u4_g1 = (((a0 | 13)) << 4);
        return (u4_mem[((x) % 8 + 8) % 8] * depth);
        i0 = i0 + 1;
    }
    return (((u4_g1 * depth)) / 3);
}

int u4_fn1(int x, int depth)
{
    int a0 = 56;
    int a1 = 79;
    int a2 = 68;
    int i0 = 0;
    int i1 = 0;
    int i2 = 0;
    if (u4_fuel <= 0) { return x; }
    u4_fuel = u4_fuel - 1;
    if (depth <= 0) { return x + 24; }
    u4_g2 = isdigit(11);
    return ((((i1) / 13)) >> 3);
    u4_g0 = i0;
    return 62;
}

int u4_fn2(int x, int depth)
{
    int a0 = 57;
    int i0 = 0;
    int i1 = 0;
    int i2 = 0;
    if (u4_fuel <= 0) { return x; }
    u4_fuel = u4_fuel - 1;
    if (depth <= 0) { return x + 38; }
    u4_g2 = u4_fn2(i1, depth - 1);
    a0 = (i2 | abs(7));
    u4_g0 = (((64 ^ u4_g2)) % 13);
    switch ((((depth * i2)) % 3 + 3) % 3) {
    case 0:
        u4_mem[((55) % 8 + 8) % 8] = ((i2 | u4_g0) + ((60) >> 2));
    case 1:
        switch (((77) % 4 + 4) % 4) {
        case 0:
            switch ((((86 - i0)) % 3 + 3) % 3) {
            case 0:
                printf("%d\n", (23 + depth));
                u4_mem[((i2) % 8 + 8) % 8] = (a0 ^ (i2 - u4_mem[((50) % 8 + 8) % 8]));
                putchar(48 + ((-(i1)) % 10 + 10) % 10);
                putchar(48 + ((((38) >> 4)) % 10 + 10) % 10);
                break;
            case 1:
                u4_mem[((95) % 8 + 8) % 8] = u4_g0;
                return ((u4_g0 + 11) + (u4_g0 & u4_g0));
                break;
            case 2:
                u4_g1 = -((i1 - i0));
                printf("%d\n", a0);
                break;
            }
            switch (((toupper(u4_g2)) % 3 + 3) % 3) {
            case 0:
                printf("%d\n", (22 & i0));
                u4_g2 = ((i1 * 79) | (x & u4_mem[((u4_mem[((u4_mem[((u4_g2) % 8 + 8) % 8]) % 8 + 8) % 8]) % 8 + 8) % 8]));
                a0 = (a0 - i2);
                u4_g2 = ((u4_mem[((95) % 8 + 8) % 8] ^ a0) + 27);
                break;
            case 1:
                printf("%d\n", abs(u4_g2));
                u4_g0 = ((-(depth)) << 4);
                return ((i2 - u4_g2) | (a0 ^ u4_g1));
                break;
            default:
                return (((x * i2)) >> 4);
                putchar(48 + ((-(19)) % 10 + 10) % 10);
                u4_g0 = i0;
                return (-(a0) | i1);
                break;
            }
            putchar(48 + ((a0) % 10 + 10) % 10);
            a0 = 33;
            break;
        case 1:
            u4_g0 = abs(((u4_g1) % 13));
            return ((u4_g0 - u4_g1) * abs(u4_g1));
            break;
        case 2:
            u4_g2 = !(47);
            return ((u4_g2 & 70) | (85 | i1));
            break;
        default:
            for (i2 = 0; i2 < 6; i2 = i2 + 1) {
                u4_fuel = u4_fuel - 1;
                if (u4_fuel <= 0) { break; }
                u4_g1 = 92;
                u4_g1 = u4_fn2((i0 ^ depth), depth - 1);
                printf("%d\n", !(34));
                u4_g1 = toupper((depth & i0));
            }
            return !(((i2) / 3));
            if (i2 >= -(a0)) {
                printf("%d\n", i2);
            } else {
                u4_g0 = ((i0 ^ 67) - ((u4_g1) << 4));
                u4_g1 = ((((u4_g0) >> 3)) / 7);
                putchar(48 + ((((66) / 3)) % 10 + 10) % 10);
            }
            i2 = 0;
            while (i2 < 6) {
                u4_fuel = u4_fuel - 1;
                if (u4_fuel <= 0) { break; }
                u4_g1 = u4_g2;
                u4_g1 = ((i1 - x) + (u4_mem[((59) % 8 + 8) % 8] | 17));
                i2 = i2 + 1;
            }
            break;
        }
        u4_g1 = -(i0);
        u4_mem[((u4_g1) % 8 + 8) % 8] = u4_mem[((depth) % 8 + 8) % 8];
        break;
    case 2:
        i2 = 0;
        while (i2 < 7) {
            u4_fuel = u4_fuel - 1;
            if (u4_fuel <= 0) { break; }
            u4_g0 = i2;
            return ((u4_mem[((a0) % 8 + 8) % 8]) / 13);
            i2 = i2 + 1;
        }
        return (-(u4_g0) | (u4_g2 - x));
        if (i1 >= ((depth) / 13)) {
            if (i0 >= depth || !(30) >= (79 | x)) {
                printf("%d\n", (74 | u4_g1));
            }
            return depth;
        } else {
            a0 = i0;
            u4_g2 = (depth | u4_mem[((i1) % 8 + 8) % 8]);
            u4_mem[((i2) % 8 + 8) % 8] = ((96 ^ u4_g0) ^ ((-1) >> 4));
        }
        u4_g1 = ((-(a0)) % 5);
        break;
    }
    return (u4_mem[((66) % 8 + 8) % 8] ^ (42 & 13));
}

int u4_fn3(int x, int depth)
{
    int a0 = 13;
    int i0 = 0;
    if (u4_fuel <= 0) { return x; }
    u4_fuel = u4_fuel - 1;
    if (depth <= 0) { return x + 23; }
    u4_mem[((u4_g2) % 8 + 8) % 8] = -((15 | u4_g0));
    a0 = ((depth) << 1);
    a0 = u4_fn0(isdigit(42), depth - 1);
    return ((u4_mem[((42) % 8 + 8) % 8] | 38) * !(x));
}

int u4_entry(void)
{
    int a0 = 94;
    int a1 = 86;
    int a2 = 16;
    int i0 = 0;
    int i1 = 0;
    u4_table[0] = u4_fn2;
    u4_table[1] = u4_fn2;
    a1 = u4_fn3(((5) / 5), 3);
    a1 = u4_fn1((76 * u4_g0), 3);
    a1 = u4_table[((a0) % 2 + 2) % 2](a1, 3);
    printf("%d\n", (a0 + 25));
    putchar(48 + ((15) % 10 + 10) % 10);
    a1 = (a2 ^ (u4_mem[((u4_mem[((u4_mem[((95) % 8 + 8) % 8]) % 8 + 8) % 8]) % 8 + 8) % 8] & -5));
    if ((u4_g1 + a1) > abs(i1) && (3 | a0) >= ((a0) / 7)) {
        if (((a2) / 3) >= (a1 & a0)) {
            u4_g1 = (isdigit(u4_mem[((a2) % 8 + 8) % 8]) * (91 & u4_g0));
            printf("%d\n", (65 * a2));
            for (i1 = 0; i1 < 6; i1 = i1 + 1) {
                u4_fuel = u4_fuel - 1;
                if (u4_fuel <= 0) { break; }
                a1 = (((u4_g0 + 50)) % 7);
            }
        } else {
            u4_g0 = (-(i0) & a2);
        }
        if ((7 ^ a1) < (u4_g0 & 6)) {
            i1 = 0;
            while (i1 < 5) {
                u4_fuel = u4_fuel - 1;
                if (u4_fuel <= 0) { break; }
                u4_g0 = (u4_g1 | 2);
                u4_mem[((i0) % 8 + 8) % 8] = !(isdigit(u4_g1));
                printf("%d\n", (u4_mem[((u4_g0) % 8 + 8) % 8] + 42));
                i1 = i1 + 1;
            }
        } else {
            u4_g1 = u4_table[((i0) % 2 + 2) % 2]((u4_g0 | i1), 3);
            u4_g0 = 75;
        }
        u4_g2 = (a0 | (u4_g2 * i1));
    }
    printf("%d\n", u4_g0 + u4_g1 + u4_g2 + a0 + u4_mem[0]);
    return 0;
}

/* generated by repro fuzz (seed=2727691527031070590, grammar v1) */
int u5_fuel = 4598;
int u5_g0 = 13;
int u5_g1 = 47;
int u5_mem[8];
int (*u5_table[4])(int x, int depth);
int u5_fn0(int x, int depth);
int u5_fn1(int x, int depth);
int u5_fn2(int x, int depth);
int u5_fn3(int x, int depth);
int u5_fn4(int x, int depth);

int u5_fn0(int x, int depth)
{
    int a0 = 49;
    int i0 = 0;
    if (u5_fuel <= 0) { return x; }
    u5_fuel = u5_fuel - 1;
    if (depth <= 0) { return x + 82; }
    i0 = 0;
    while (i0 < 8) {
        u5_fuel = u5_fuel - 1;
        if (u5_fuel <= 0) { break; }
        switch ((((i0 & 49)) % 2 + 2) % 2) {
        case 0:
            return (toupper(u5_mem[((i0) % 8 + 8) % 8]) * -(96));
            switch ((((i0 - u5_g0)) % 4 + 4) % 4) {
            case 0:
                u5_g1 = (x * (i0 - 32));
                putchar(48 + ((71) % 10 + 10) % 10);
                return 8;
                u5_mem[((x) % 8 + 8) % 8] = 3;
                break;
            case 1:
                u5_g0 = (((-6 & a0)) / 3);
                return !(!(i0));
                u5_g1 = u5_g0;
                break;
            case 2:
                printf("%d\n", ((a0) % 3));
                putchar(48 + ((x) % 10 + 10) % 10);
                u5_g0 = 36;
                a0 = x;
                break;
            case 3:
                u5_mem[((83) % 8 + 8) % 8] = ((a0 ^ a0) * ((3) / 7));
                break;
            }
            u5_mem[((depth) % 8 + 8) % 8] = u5_fn3(-(29), depth - 1);
            break;
        default:
            return ((((u5_mem[((90) % 8 + 8) % 8]) / 13)) >> 4);
            printf("%d\n", u5_mem[((depth) % 8 + 8) % 8]);
            break;
        }
        if (((97) << 3) >= ((depth) >> 4)) {
            u5_mem[((24) % 8 + 8) % 8] = -((22 - depth));
            a0 = ((22 & 94) * (u5_mem[((91) % 8 + 8) % 8] | u5_mem[((u5_mem[((20) % 8 + 8) % 8]) % 8 + 8) % 8]));
        } else {
            u5_g1 = u5_fn1((u5_g0 * 60), depth - 1);
            u5_g0 = (((x) >> 2) ^ (x & depth));
        }
        i0 = i0 + 1;
    }
    a0 = ((u5_g1 * depth) & -(20));
    u5_mem[((80) % 8 + 8) % 8] = ((i0 * 74) + i0);
    return ((u5_g0 * i0) | a0);
}

int u5_fn1(int x, int depth)
{
    int a0 = 12;
    int a1 = 34;
    int a2 = 13;
    int i0 = 0;
    int i1 = 0;
    int i2 = 0;
    if (u5_fuel <= 0) { return x; }
    u5_fuel = u5_fuel - 1;
    if (depth <= 0) { return x + 18; }
    if ((u5_g0 & 85) == (a0 * 31)) {
        a1 = 79;
        if ((i1 & x) > x) {
            switch (((0) % 4 + 4) % 4) {
            case 0:
                putchar(48 + ((a2) % 10 + 10) % 10);
                a2 = 17;
                printf("%d\n", -(i0));
                u5_g0 = u5_fn4(((74) / 5), depth - 1);
                break;
            case 1:
                u5_mem[((a1) % 8 + 8) % 8] = u5_fn4(((a2) / 3), depth - 1);
                putchar(48 + ((24) % 10 + 10) % 10);
                break;
            case 2:
                printf("%d\n", ((u5_g1) % 13));
                printf("%d\n", (36 - 98));
                u5_mem[((i1) % 8 + 8) % 8] = abs(x);
                putchar(48 + (((u5_g1 & i1)) % 10 + 10) % 10);
                break;
            default:
                a1 = (x | a1);
                putchar(48 + ((((a0) << 4)) % 10 + 10) % 10);
                a0 = u5_fn4((3 | u5_mem[((u5_g0) % 8 + 8) % 8]), depth - 1);
                break;
            }
            printf("%d\n", depth);
            return ((u5_mem[((a0) % 8 + 8) % 8] * i0) & (90 & u5_g0));
            switch ((((7 ^ u5_g1)) % 2 + 2) % 2) {
            case 0:
                return ((i1 & depth) ^ (u5_g1 & u5_mem[((a0) % 8 + 8) % 8]));
                putchar(48 + ((!(90)) % 10 + 10) % 10);
                return ((((a2) / 3)) / 13);
                break;
            default:
                putchar(48 + ((((84) << 2)) % 10 + 10) % 10);
                u5_g1 = ((u5_mem[((i2) % 8 + 8) % 8] + 7) + -(20));
                return -((11 | 81));
                break;
            }
        } else {
            switch (((depth) % 2 + 2) % 2) {
            case 0:
                putchar(48 + ((i0) % 10 + 10) % 10);
                printf("%d\n", (depth * a0));
                return (((a1) % 13) - (55 * 28));
                putchar(48 + (((55 | a0)) % 10 + 10) % 10);
                break;
            case 1:
                putchar(48 + ((-(31)) % 10 + 10) % 10);
                putchar(48 + (((a2 * i0)) % 10 + 10) % 10);
                break;
            }
            return x;
        }
        u5_g1 = i0;
    }
    u5_g0 = ((i0 | depth) | (x + i2));
    return (2 ^ (u5_mem[((u5_mem[((75) % 8 + 8) % 8]) % 8 + 8) % 8] | i0));
}

int u5_fn2(int x, int depth)
{
    int a0 = 58;
    int i0 = 0;
    int i1 = 0;
    if (u5_fuel <= 0) { return x; }
    u5_fuel = u5_fuel - 1;
    if (depth <= 0) { return x + 99; }
    if (((i0) % 3) > (u5_mem[((u5_g1) % 8 + 8) % 8] ^ u5_g0) && 92 < ((u5_mem[((i0) % 8 + 8) % 8]) / 5)) {
        return 50;
    }
    u5_g0 = a0;
    return u5_g1;
}

int u5_fn3(int x, int depth)
{
    int a0 = 61;
    int a1 = 71;
    int i0 = 0;
    if (u5_fuel <= 0) { return x; }
    u5_fuel = u5_fuel - 1;
    if (depth <= 0) { return x + 30; }
    return ((u5_g0 + x) | 6);
    if (-(a1) == (a1 * x) && ((u5_g0) << 1) > 45) {
        putchar(48 + (((x + x)) % 10 + 10) % 10);
        u5_g1 = u5_mem[((u5_g1) % 8 + 8) % 8];
        return 70;
        if ((u5_mem[((a0) % 8 + 8) % 8] | u5_g0) != (58 | -6)) {
            u5_mem[((a0) % 8 + 8) % 8] = ((42 * u5_mem[((x) % 8 + 8) % 8]) & (93 + depth));
            u5_g1 = (-(x) ^ (a1 ^ 86));
            if ((x | depth) == ((u5_mem[((17) % 8 + 8) % 8]) >> 4)) {
                printf("%d\n", a0);
                putchar(48 + (((u5_g1 | 58)) % 10 + 10) % 10);
                putchar(48 + (((i0 & a0)) % 10 + 10) % 10);
                a1 = u5_g0;
            }
        } else {
            u5_g0 = (95 * abs(72));
            u5_g1 = u5_fn4(((u5_mem[((9) % 8 + 8) % 8]) >> 4), depth - 1);
        }
    } else {
        u5_g0 = (((u5_g1) << 4) & (66 ^ u5_mem[((19) % 8 + 8) % 8]));
        u5_g1 = (((u5_mem[((x) % 8 + 8) % 8] & 20)) % 13);
    }
    if (!(a1) > 77) {
        switch (((u5_mem[((a0) % 8 + 8) % 8]) % 4 + 4) % 4) {
        case 0:
            switch ((((u5_g1 + 33)) % 3 + 3) % 3) {
            case 0:
                a1 = u5_fn4(u5_g1, depth - 1);
                u5_g1 = ((93) / 7);
                break;
            case 1:
                putchar(48 + ((u5_mem[((78) % 8 + 8) % 8]) % 10 + 10) % 10);
                printf("%d\n", u5_g0);
                break;
            case 2:
                u5_g1 = depth;
                break;
            }
            break;
        case 1:
            u5_g0 = u5_fn2(x, depth - 1);
            u5_mem[((91) % 8 + 8) % 8] = toupper(82);
            break;
        case 2:
            u5_g0 = (depth * (u5_g0 + 50));
            for (i0 = 0; i0 < 5; i0 = i0 + 1) {
                u5_fuel = u5_fuel - 1;
                if (u5_fuel <= 0) { break; }
                a0 = u5_fn4(x, depth - 1);
            }
            i0 = 0;
            while (i0 < 7) {
                u5_fuel = u5_fuel - 1;
                if (u5_fuel <= 0) { break; }
                putchar(48 + (((i0 * 74)) % 10 + 10) % 10);
                u5_g0 = toupper((u5_g1 * depth));
                i0 = i0 + 1;
            }
        default:
            return x;
            break;
        }
        u5_g1 = (33 * -(a0));
    } else {
        u5_g0 = (u5_mem[((i0) % 8 + 8) % 8] * a1);
        u5_g1 = ((depth + x) & i0);
        u5_g0 = (95 * i0);
        if ((u5_g0 | a1) != (depth | i0)) {
            a1 = ((a0 * a0) & (55 * x));
            return (((i0 & 36)) / 7);
            return depth;
        } else {
            a0 = !((u5_g1 - u5_g1));
            u5_g1 = (u5_mem[((17) % 8 + 8) % 8] + (depth - x));
        }
    }
    a1 = ((52 * a1) * -(89));
    return a0;
}

int u5_fn4(int x, int depth)
{
    int a0 = 29;
    int a1 = 0;
    int a2 = 82;
    int i0 = 0;
    if (u5_fuel <= 0) { return x; }
    u5_fuel = u5_fuel - 1;
    if (depth <= 0) { return x + 40; }
    switch ((((82 & depth)) % 2 + 2) % 2) {
    case 0:
        i0 = 0;
        while (i0 < 2) {
            u5_fuel = u5_fuel - 1;
            if (u5_fuel <= 0) { break; }
            break;
            u5_g1 = ((i0 & u5_mem[((a0) % 8 + 8) % 8]) + u5_g1);
            switch ((((a0 + u5_g1)) % 2 + 2) % 2) {
            case 0:
                printf("%d\n", u5_g0);
                u5_mem[((x) % 8 + 8) % 8] = 11;
                printf("%d\n", (u5_g0 + u5_mem[((a2) % 8 + 8) % 8]));
                break;
            case 1:
                putchar(48 + ((x) % 10 + 10) % 10);
                u5_mem[((9) % 8 + 8) % 8] = (((34) / 3) - (55 - 57));
                putchar(48 + ((((-8) / 7)) % 10 + 10) % 10);
                return ((a0) << 3);
                break;
            }
            a1 = a1;
            i0 = i0 + 1;
        }
        i0 = 0;
        while (i0 < 6) {
            u5_fuel = u5_fuel - 1;
            if (u5_fuel <= 0) { break; }
            if (!(62) == (a2 - 73)) {
                a2 = u5_table[((a2) % 4 + 4) % 4](u5_g1, depth - 1);
                printf("%d\n", -(depth));
                u5_g0 = u5_g0;
                printf("%d\n", (u5_g1 & i0));
            } else {
                putchar(48 + ((27) % 10 + 10) % 10);
                printf("%d\n", (u5_g1 + 30));
                printf("%d\n", ((i0) << 1));
            }
            u5_mem[((a1) % 8 + 8) % 8] = ((-3 | a1) ^ ((i0) >> 3));
            u5_g0 = 48;
            i0 = i0 + 1;
        }
        return u5_mem[((56) % 8 + 8) % 8];
        a1 = ((a1 & a0) & 89);
        break;
    case 1:
        a0 = ((47 - a0) - (5 | depth));
        a0 = u5_g1;
        for (i0 = 0; i0 < 4; i0 = i0 + 1) {
            u5_fuel = u5_fuel - 1;
            if (u5_fuel <= 0) { break; }
            a1 = 79;
            putchar(48 + ((((u5_mem[((u5_mem[((45) % 8 + 8) % 8]) % 8 + 8) % 8]) << 4)) % 10 + 10) % 10);
            a1 = (i0 - -(a1));
            u5_g0 = u5_fn0(!(a1), depth - 1);
        }
        u5_g1 = toupper(((56) >> 2));
        break;
    }
    if (u5_mem[((85) % 8 + 8) % 8] == (u5_mem[((depth) % 8 + 8) % 8] - depth) || (x * depth) > ((u5_mem[((x) % 8 + 8) % 8]) / 13)) {
        for (i0 = 0; i0 < 5; i0 = i0 + 1) {
            u5_fuel = u5_fuel - 1;
            if (u5_fuel <= 0) { break; }
            u5_g0 = (a2 & ((u5_g0) / 3));
            a2 = ((((a2) >> 4)) / 7);
            a1 = (8 + 41);
        }
        for (i0 = 0; i0 < 8; i0 = i0 + 1) {
            u5_fuel = u5_fuel - 1;
            if (u5_fuel <= 0) { break; }
            a2 = u5_fn4(i0, depth - 1);
        }
        if ((i0 + a2) >= (21 + u5_g1)) {
            return !(a1);
            putchar(48 + ((u5_g1) % 10 + 10) % 10);
            a2 = u5_table[((a2) % 4 + 4) % 4]((22 * a0), depth - 1);
            for (i0 = 0; i0 < 7; i0 = i0 + 1) {
                u5_fuel = u5_fuel - 1;
                if (u5_fuel <= 0) { break; }
                a0 = -((56 * x));
                printf("%d\n", i0);
                a0 = !(((u5_g0) % 3));
            }
        } else {
            return ((i0 | a1) - (56 + u5_mem[((74) % 8 + 8) % 8]));
            putchar(48 + ((u5_g1) % 10 + 10) % 10);
            switch (((isdigit(u5_mem[((99) % 8 + 8) % 8])) % 2 + 2) % 2) {
            case 0:
                return (toupper(71) * u5_mem[((79) % 8 + 8) % 8]);
                putchar(48 + (((56 + -9)) % 10 + 10) % 10);
                break;
            default:
                return !((-6 * a2));
                break;
            }
        }
    } else {
        a0 = -((98 * 42));
        u5_g0 = (75 & ((a1) >> 3));
        printf("%d\n", (x | a0));
    }
    u5_g0 = ((a0) >> 1);
    a0 = u5_table[((depth) % 4 + 4) % 4](i0, depth - 1);
    return u5_g0;
}

int u5_entry(void)
{
    int a0 = 83;
    int a1 = 70;
    int i0 = 0;
    int i1 = 0;
    u5_table[0] = u5_fn2;
    u5_table[1] = u5_fn4;
    u5_table[2] = u5_fn1;
    u5_table[3] = u5_fn3;
    a1 = u5_fn1((a1 | 89), 3);
    a1 = u5_fn4(28, 3);
    a1 = u5_fn2(a0, 3);
    a0 = u5_table[((u5_mem[((-8) % 8 + 8) % 8]) % 4 + 4) % 4]((i1 + -6), 3);
    a1 = !((u5_mem[((98) % 8 + 8) % 8] ^ 0));
    if (0 >= a1) {
        u5_g1 = ((a1 ^ 15) & ((a1) << 4));
        a1 = u5_table[((u5_mem[((90) % 8 + 8) % 8]) % 4 + 4) % 4](((6) / 13), 3);
    } else {
        i1 = 0;
        while (i1 < 6) {
            u5_fuel = u5_fuel - 1;
            if (u5_fuel <= 0) { break; }
            for (i0 = 0; i0 < 7; i0 = i0 + 1) {
                u5_fuel = u5_fuel - 1;
                if (u5_fuel <= 0) { break; }
                u5_g0 = (a0 ^ (i0 + i0));
            }
            printf("%d\n", (i0 - u5_mem[((u5_g0) % 8 + 8) % 8]));
            u5_g1 = u5_mem[((u5_g0) % 8 + 8) % 8];
            i1 = i1 + 1;
        }
        a0 = ((2 * i0) ^ (u5_mem[((a0) % 8 + 8) % 8] | u5_mem[((u5_g0) % 8 + 8) % 8]));
    }
    putchar(48 + (((58 * i0)) % 10 + 10) % 10);
    printf("%d\n", u5_g0 + u5_g1 + a0 + u5_mem[0]);
    return 0;
}

int chain_19(int acc)
{
    return acc;
}
int chain_18(int acc)
{
    if (acc < 0) {
        return 0;
    }
    return chain_19(acc + 4);
}
int chain_17(int acc)
{
    return chain_18(acc + 2);
}
int chain_16(int acc)
{
    return chain_17(acc + 1);
}
int chain_15(int acc)
{
    if (acc < 0) {
        return 0;
    }
    return chain_16(acc + 1);
}
int chain_14(int acc)
{
    return chain_15(acc + 4);
}
int chain_13(int acc)
{
    return chain_14(acc + 3);
}
int chain_12(int acc)
{
    if (acc < 0) {
        return 0;
    }
    return chain_13(acc + 5);
}
int chain_11(int acc)
{
    return chain_12(acc + 1);
}
int chain_10(int acc)
{
    return chain_11(acc + 0);
}
int chain_9(int acc)
{
    if (acc < 0) {
        return 0;
    }
    return chain_10(acc + 2);
}
int chain_8(int acc)
{
    return chain_9(acc + 3);
}
int chain_7(int acc)
{
    return chain_8(acc + 2);
}
int chain_6(int acc)
{
    if (acc < 0) {
        return 0;
    }
    return chain_7(acc + 6);
}
int chain_5(int acc)
{
    return chain_6(acc + 0);
}
int chain_4(int acc)
{
    return chain_5(acc + 4);
}
int chain_3(int acc)
{
    if (acc < 0) {
        return 0;
    }
    return chain_4(acc + 3);
}
int chain_2(int acc)
{
    return chain_3(acc + 2);
}
int chain_1(int acc)
{
    return chain_2(acc + 1);
}
int chain_0(int acc)
{
    if (acc < 0) {
        return 0;
    }
    return chain_1(acc + 0);
}

int main(void)
{
    int total;
    total = 0;
    total = total + u0_entry();
    total = total + u1_entry();
    total = total + u2_entry();
    total = total + u3_entry();
    total = total + u4_entry();
    total = total + u5_entry();
    total = total + chain_0(6);
    printf("xl:%d\n", total);
    return 0;
}
